"""Concurrent access: the readers-writer lock and the engine under load.

Two layers of coverage:

- :class:`ReadWriteLock` in isolation — reader parallelism, writer
  exclusivity, and write preference (a waiting writer blocks new
  readers, so reads cannot starve writes).
- The whole :class:`Database` — N reader threads issuing indexed
  SELECTs while a writer inserts/updates; every observed result must be
  one that some serial interleaving could have produced.
"""

import sys
import threading
import time

import pytest

from repro.sqlengine import Database, ReadWriteLock


class TestReadWriteLock:
    def test_readers_run_concurrently(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(3, timeout=5)
        done = []

        def reader():
            with lock.reading():
                inside.wait()  # all three must be inside simultaneously
            done.append(True)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert len(done) == 3

    def test_writer_is_exclusive(self):
        lock = ReadWriteLock()
        log = []

        def writer(tag):
            with lock.writing():
                log.append(("enter", tag))
                time.sleep(0.01)
                log.append(("exit", tag))

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        # Critical sections never interleave: enter/exit strictly paired.
        for i in range(0, len(log), 2):
            assert log[i][0] == "enter"
            assert log[i + 1] == ("exit", log[i][1])

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        first_reader_in = threading.Event()
        release_first_reader = threading.Event()
        order = []

        def long_reader():
            with lock.reading():
                first_reader_in.set()
                release_first_reader.wait(timeout=5)
            order.append("reader1-out")

        def writer():
            with lock.writing():
                order.append("writer")

        def late_reader():
            with lock.reading():
                order.append("reader2")

        r1 = threading.Thread(target=long_reader)
        r1.start()
        assert first_reader_in.wait(timeout=5)
        w = threading.Thread(target=writer)
        w.start()
        # Give the writer time to queue, then start a second reader: it
        # must wait behind the writer (write preference).
        time.sleep(0.05)
        r2 = threading.Thread(target=late_reader)
        r2.start()
        time.sleep(0.05)
        assert order == []  # everyone still waiting on reader 1
        release_first_reader.set()
        for t in (r1, w, r2):
            t.join(timeout=5)
        assert order.index("writer") < order.index("reader2")

    def test_sequential_reacquisition(self):
        lock = ReadWriteLock()
        with lock.writing():
            pass
        with lock.reading():
            pass
        with lock.writing():
            pass  # lock is reusable after both modes


class TestConcurrentDatabase:
    N_READERS = 4
    N_WRITES = 60

    @pytest.fixture
    def db(self):
        database = Database()
        database.execute(
            "CREATE TABLE ledger (id INTEGER PRIMARY KEY, "
            "account TEXT, amount INTEGER)"
        )
        database.insert_rows(
            "ledger", [(i, f"acct{i % 5}", 100) for i in range(50)]
        )
        database.execute("CREATE INDEX idx_acct ON ledger (account)")
        return database

    def test_readers_see_consistent_snapshots_during_writes(self, db):
        """Writers move every row by the same delta; a torn read would
        surface as a SUM no serial schedule could produce."""
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    rows = db.execute("SELECT SUM(amount) FROM ledger").rows
                    total = rows[0][0]
                    # Every write adds exactly 50 (1 per row), so any
                    # consistent snapshot is a multiple of 50 past 5000.
                    assert total % 50 == 0, total
                    assert 100 * 50 <= total <= 100 * 50 + self.N_WRITES * 50
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        readers = [
            threading.Thread(target=reader) for _ in range(self.N_READERS)
        ]
        for t in readers:
            t.start()
        try:
            for _ in range(self.N_WRITES):
                db.execute("UPDATE ledger SET amount = amount + 1")
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=10)
        assert errors == []
        assert db.execute("SELECT SUM(amount) FROM ledger").rows == [
            (50 * (100 + self.N_WRITES),)
        ]

    def test_indexed_reads_race_index_ddl(self, db):
        """SELECTs keep answering correctly while another thread
        creates and drops the index they would use."""
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    rows = db.execute(
                        "SELECT COUNT(*) FROM ledger WHERE account = 'acct1'"
                    ).rows
                    assert rows == [(10,)]
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        readers = [
            threading.Thread(target=reader) for _ in range(self.N_READERS)
        ]
        for t in readers:
            t.start()
        try:
            for _ in range(20):
                db.execute("DROP INDEX idx_acct")
                db.execute("CREATE INDEX idx_acct ON ledger (account)")
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=10)
        assert errors == []

    def test_prepared_statements_race_eviction_and_ddl(self, db):
        """Readers share, build into and evict prepared statements while
        a writer moves the schema epoch: every answer stays right (a
        stale plan would read a dropped index) and the memo bounded."""
        db._PREPARED_CAPACITY = 4
        texts = [
            f"SELECT COUNT(*) FROM ledger WHERE account = 'acct{i}'"
            for i in range(5)
        ] + [
            "SELECT DISTINCT account FROM ledger WHERE account IS NOT NULL "
            f"LIMIT {n}"
            for n in (1, 2, 3)
        ]
        expected = {text: db.execute(text).rows for text in texts}
        stop = threading.Event()
        errors = []

        def reader(offset):
            while not stop.is_set():
                offset += 1
                text = texts[offset % len(texts)]
                try:
                    assert db.execute(text).rows == expected[text], text
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        readers = [
            threading.Thread(target=reader, args=(n,))
            for n in range(self.N_READERS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in readers:
                t.start()
            for _ in range(20):
                db.execute("DROP INDEX idx_acct")
                db.execute("CREATE INDEX idx_acct ON ledger (account)")
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for t in readers:
                t.join(timeout=10)
        assert not any(t.is_alive() for t in readers)
        assert errors == []
        assert len(db._prepared) <= 4

    def test_concurrent_inserts_from_many_threads(self, db):
        def writer(base):
            for i in range(10):
                db.execute(
                    f"INSERT INTO ledger VALUES ({1000 + base * 10 + i}, "
                    f"'bulk', {i})"
                )

        threads = [
            threading.Thread(target=writer, args=(n,)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert db.execute(
            "SELECT COUNT(*) FROM ledger WHERE account = 'bulk'"
        ).rows == [(40,)]


class TestVectorBuildRaces:
    """Column vectors are built and extended by readers, under the
    shared read lock, so two readers can race the same build."""

    ROUNDS = 40
    DASHBOARD = (
        "SELECT kind, COUNT(*), SUM(amount), MAX(amount) FROM events "
        "WHERE amount > 2 GROUP BY kind"
    )

    def test_two_readers_race_each_build_while_a_writer_ingests(self):
        db, mirror = Database(), Database(optimize=False)
        for each in (db, mirror):
            each.execute(
                "CREATE TABLE events (id INTEGER PRIMARY KEY, kind TEXT, amount REAL)"
            )
        start = threading.Barrier(3, timeout=10)
        finish = threading.Barrier(3, timeout=10)
        seen = [[], []]

        def reader(results):
            for _ in range(self.ROUNDS):
                start.wait()  # released together: both find the vectors stale
                results.append(db.execute(self.DASHBOARD).rows)
                finish.wait()

        readers = [threading.Thread(target=reader, args=(r,)) for r in seen]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside the builds
        try:
            for t in readers:
                t.start()
            expected = []
            for n in range(self.ROUNDS):
                # The writer ingests *between* statements: no sleeps,
                # the barriers order it against the readers.
                insert = f"INSERT INTO events VALUES ({n}, 'k{n % 3}', {n % 7}.5)"
                db.execute(insert)
                mirror.execute(insert)
                if n == self.ROUNDS // 2:  # and once replaces the heap
                    for each in (db, mirror):
                        each.execute("DELETE FROM events WHERE id % 5 = 0")
                expected.append(mirror.execute(self.DASHBOARD).rows)
                start.wait()
                finish.wait()
        finally:
            sys.setswitchinterval(interval)
            for t in readers:
                t.join(timeout=10)
        assert not any(t.is_alive() for t in readers)
        assert seen[0] == expected
        assert seen[1] == expected
