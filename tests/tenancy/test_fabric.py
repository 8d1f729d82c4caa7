"""Integration tests for the tenant fabric over a booted facade."""

import threading

import pytest

from repro.apps.base import Application, AppResponse
from repro.core import DBGPT
from repro.core.config import DbGptConfig
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.obs.metrics import get_registry
from repro.rag.document import Document
from repro.tenancy import QuotaConfig, TenancyConfig
from repro.tenancy.quotas import TenantThrottled
from repro.tenancy.registry import UnknownTenant


def boot_tenant_dbgpt(**tenancy_kwargs):
    tenancy_kwargs.setdefault("enabled", True)
    config = DbGptConfig(tenancy=TenancyConfig(**tenancy_kwargs))
    dbgpt = DBGPT.boot(config)
    dbgpt.register_source(EngineSource(build_sales_database(n_orders=30)))
    return dbgpt


@pytest.fixture
def tenant_dbgpt():
    dbgpt = boot_tenant_dbgpt()
    yield dbgpt
    dbgpt.shutdown()


class TestFabricLifecycle:
    def test_chat_creates_and_resumes_session(self, tenant_dbgpt):
        tenant_dbgpt.register_tenant("acme")
        record, response = tenant_dbgpt.tenant_chat(
            "acme", "How many orders are there?", app_name="chat2db"
        )
        assert response.ok
        assert record.tenant_id == "acme"
        assert len(record.turns) == 1
        resumed, _ = tenant_dbgpt.tenant_chat(
            "acme", "Show the tables.", session_id=record.session_id
        )
        assert resumed is record
        assert len(record.turns) == 2

    def test_unknown_tenant_rejected(self, tenant_dbgpt):
        with pytest.raises(UnknownTenant):
            tenant_dbgpt.tenant_chat("ghost", "hello")

    def test_tenant_private_source_and_model_preference(self, tenant_dbgpt):
        private = EngineSource(build_sales_database(n_orders=5))
        tenant_dbgpt.register_tenant(
            "acme", source=private, model_preference="sql-coder"
        )
        tenant_dbgpt.register_tenant("globex")
        fabric = tenant_dbgpt.fabric
        # acme's text2sql is private and bound to its own source...
        assert fabric.app_for("acme", "text2sql") is not (
            tenant_dbgpt.app("text2sql")
        )
        # ...while globex falls back to the shared application.
        assert fabric.app_for("globex", "text2sql") is (
            tenant_dbgpt.app("text2sql")
        )

    def test_tenant_private_knowledge(self, tenant_dbgpt):
        tenant_dbgpt.register_tenant(
            "acme",
            documents=[Document("d1", "The warehouse code is WH-7.")],
        )
        app = tenant_dbgpt.fabric.app_for("acme", "knowledge_qa")
        assert app.name == "knowledge_qa"
        assert "knowledge_qa" in tenant_dbgpt.fabric.app_names("acme")

    def test_default_boot_is_the_production_profile(self):
        dbgpt = DBGPT.boot()
        try:
            assert dbgpt.fabric is not None
            assert dbgpt.controller.scheduler._admission_hook is not None
            assert dbgpt.controller.breakers is not None
            assert dbgpt.controller.health is not None
            assert dbgpt.controller._retry_policy is not None
            assert dbgpt.client._retry_policy is not None
            dbgpt.register_tenant("acme")
            assert [row["tenant"] for row in dbgpt.tenants()] == ["acme"]
        finally:
            dbgpt.shutdown()
        with pytest.raises(ValueError, match="cannot be disabled"):
            TenancyConfig(enabled=False)

    @pytest.mark.parametrize("removed", ["shards", "virtual_nodes"])
    def test_there_is_no_shard_ring_to_configure(self, removed):
        with pytest.raises(TypeError):
            TenancyConfig(**{removed: 4})


class TestQuotasAtTheFabric:
    def test_noisy_tenant_throttled_compliant_unaffected(self, tenant_dbgpt):
        tenant_dbgpt.register_tenant(
            "noisy", quota=QuotaConfig(refill_per_second=0.001, burst=2.0)
        )
        tenant_dbgpt.register_tenant("quiet")
        for _ in range(2):
            tenant_dbgpt.tenant_chat(
                "noisy", "How many orders are there?", app_name="chat2db"
            )
        with pytest.raises(TenantThrottled) as exc_info:
            tenant_dbgpt.tenant_chat(
                "noisy", "How many orders are there?", app_name="chat2db"
            )
        assert exc_info.value.retry_after > 0
        # The compliant tenant is untouched by its neighbor's burst.
        _, response = tenant_dbgpt.tenant_chat(
            "quiet", "How many orders are there?", app_name="chat2db"
        )
        assert response.ok
        assert (
            get_registry()
            .counter("tenant_throttled_total", "")
            .value(tenant="noisy", reason="rate")
            >= 1
        )

    def test_turn_metrics_emitted(self, tenant_dbgpt):
        tenant_dbgpt.register_tenant("acme")
        tenant_dbgpt.tenant_chat(
            "acme", "How many orders are there?", app_name="chat2db"
        )
        turns = get_registry().histogram("tenant_turn_latency_ms")
        assert turns.count(tenant="acme", ok="true") == 1


class _RaisingApp(Application):
    name = "raising"

    def chat(self, text: str) -> AppResponse:
        raise RuntimeError("app blew up")


class TestTurnBookkeeping:
    """A turn's pin and in-flight slot are released on every exit."""

    def test_throttled_turn_charges_and_pins_nothing(self, tenant_dbgpt):
        tenant_dbgpt.register_tenant(
            "acme", quota=QuotaConfig(refill_per_second=0.001, burst=1.0)
        )
        fabric = tenant_dbgpt.fabric
        record, _ = tenant_dbgpt.tenant_chat(
            "acme", "How many orders are there?", app_name="chat2db"
        )
        tokens = fabric.quotas.snapshot()["acme"]["tokens"]
        with pytest.raises(TenantThrottled):
            tenant_dbgpt.tenant_chat(
                "acme", "Show the tables.", session_id=record.session_id
            )
        assert record.inflight == 0
        row = fabric.quotas.snapshot()["acme"]
        assert row["inflight"] == 0
        assert row["admitted"] == 1
        assert row["tokens"] == pytest.approx(tokens, abs=0.01)

    def test_raising_app_releases_and_unpins(self, tenant_dbgpt):
        tenant_dbgpt.register_tenant("acme")
        tenant_dbgpt._apps["raising"] = _RaisingApp()
        fabric = tenant_dbgpt.fabric
        record = fabric.open_session("acme", "raising")
        with pytest.raises(RuntimeError, match="blew up"):
            tenant_dbgpt.tenant_chat(
                "acme", "hello", session_id=record.session_id
            )
        assert record.inflight == 0
        assert fabric.quotas.snapshot()["acme"]["inflight"] == 0
        assert (
            get_registry().get("tenant_inflight").value(tenant="acme") == 0
        )

    def test_foreign_session_is_forbidden_and_left_unpinned(
        self, tenant_dbgpt
    ):
        from repro.tenancy.fabric import TenantForbidden

        tenant_dbgpt.register_tenant("acme")
        tenant_dbgpt.register_tenant("globex")
        record = tenant_dbgpt.fabric.open_session("acme", "chat2db")
        with pytest.raises(TenantForbidden):
            tenant_dbgpt.tenant_chat(
                "globex", "hello", session_id=record.session_id
            )
        assert record.inflight == 0
        assert "globex" not in tenant_dbgpt.fabric.quotas.snapshot()


class _ProbeApp(Application):
    """Tracks how many chats run concurrently (must stay 1 within a
    session: the record lock serializes same-session turns)."""

    name = "probe"

    def __init__(self):
        self._lock = threading.Lock()
        self._active = 0
        self.max_active = 0

    def chat(self, text: str) -> AppResponse:
        with self._lock:
            self._active += 1
            self.max_active = max(self.max_active, self._active)
        try:
            return AppResponse(text=f"probe: {text}")
        finally:
            with self._lock:
                self._active -= 1


class TestConcurrency:
    def test_same_session_turns_serialize(self, tenant_dbgpt):
        tenant_dbgpt.register_tenant(
            "acme", quota=QuotaConfig(burst=64.0, max_inflight=16)
        )
        probe = _ProbeApp()
        tenant_dbgpt._apps["probe"] = probe
        record = tenant_dbgpt.fabric.open_session("acme", "probe")
        errors = []

        def send(i):
            try:
                tenant_dbgpt.tenant_chat(
                    "acme", f"turn-{i}", session_id=record.session_id
                )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=send, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Every turn landed exactly once, and none interleaved.
        assert len(record.turns) == 8
        assert {turn.user for turn in record.turns} == {
            f"turn-{i}" for i in range(8)
        }
        assert probe.max_active == 1

    def test_eviction_never_drops_inflight_session(self):
        dbgpt = boot_tenant_dbgpt(max_sessions_per_tenant=1)
        try:
            dbgpt.register_tenant("acme")
            fabric = dbgpt.fabric
            entered = threading.Event()
            release = threading.Event()

            class _BlockingApp(Application):
                name = "blocking"

                def chat(self, text: str) -> AppResponse:
                    entered.set()
                    release.wait(timeout=10.0)
                    return AppResponse(text="done")

            dbgpt._apps["blocking"] = _BlockingApp()
            pinned = fabric.open_session("acme", "blocking")
            worker = threading.Thread(
                target=fabric.chat,
                args=("acme", "slow turn"),
                kwargs={"session_id": pinned.session_id},
            )
            worker.start()
            assert entered.wait(timeout=10.0)
            # While the turn is in flight, new sessions beyond the
            # bound must not evict the pinned record.
            fabric.open_session("acme", "chat2db")
            assert pinned.session_id in fabric.store
            release.set()
            worker.join(timeout=10.0)
            assert len(pinned.turns) == 1
        finally:
            release.set()
            dbgpt.shutdown()


class TestObservability:
    def test_root_span_carries_tenant(self, tenant_dbgpt):
        tenant_dbgpt.register_tenant("acme")
        tenant_dbgpt.tenant_chat(
            "acme", "How many orders are there?", app_name="chat2db"
        )
        spans = tenant_dbgpt.last_trace()
        roots = [span for span in spans if span.name == "app.chat"]
        assert roots and all(
            span.attributes.get("tenant") == "acme" for span in roots
        )

    def test_untenanted_span_has_no_tenant(self, tenant_dbgpt):
        tenant_dbgpt.chat("chat2db", "How many orders are there?")
        spans = tenant_dbgpt.last_trace()
        roots = [span for span in spans if span.name == "app.chat"]
        assert roots and all(
            "tenant" not in span.attributes for span in roots
        )

    def test_describe_and_render(self, tenant_dbgpt):
        tenant_dbgpt.register_tenant("acme", name="Acme Corp")
        tenant_dbgpt.tenant_chat(
            "acme", "How many orders are there?", app_name="chat2db"
        )
        rows = tenant_dbgpt.tenants()
        assert rows[0]["tenant"] == "acme"
        assert rows[0]["sessions"] == 1
        table = tenant_dbgpt.fabric.render_table()
        assert "acme" in table
