"""Tests for DB-GPT-Hub: dataset, trainer, adapters, evaluation."""

import pytest

from repro.datasets import build_spider_database
from repro.datasets.spider import list_domains
from repro.datasources import EngineSource
from repro.hub import (
    FineTuner,
    LexiconAdapter,
    Text2SqlDataset,
    evaluate_model,
)
from repro.hub.evaluator import canonical_sql, exact_match, execution_match
from repro.llm import SqlCoderModel
from repro.nlu import SchemaIndex
from repro.nlu.lexicon import Lexicon


@pytest.fixture(scope="module")
def clinic():
    db = build_spider_database("clinic")
    source = EngineSource(db)
    return db, source, SchemaIndex.from_source(source)


class TestDataset:
    def test_from_domain_split_sizes(self):
        dataset = Text2SqlDataset.from_domain("hr", n_train=30, n_test=10)
        assert len(dataset.train) == 30
        assert len(dataset.test) == 10

    def test_train_test_streams_differ(self):
        dataset = Text2SqlDataset.from_domain("hr", n_train=20, n_test=20)
        assert dataset.train != dataset.test

    def test_from_pairs(self):
        dataset = Text2SqlDataset.from_pairs(
            "custom",
            [("q1", "SELECT 1"), ("q2", "SELECT 2"), ("q3", "SELECT 3")],
            test_fraction=0.34,
        )
        assert len(dataset.train) + len(dataset.test) == 3
        assert dataset.test

    def test_from_pairs_empty_rejected(self):
        with pytest.raises(ValueError):
            Text2SqlDataset.from_pairs("x", [])

    def test_save_load_round_trip(self, tmp_path):
        dataset = Text2SqlDataset.from_domain("hr", n_train=5, n_test=3)
        path = tmp_path / "data.json"
        dataset.save(path)
        loaded = Text2SqlDataset.load(path)
        assert loaded.train == dataset.train
        assert loaded.test == dataset.test


class TestEvaluatorMetrics:
    def test_canonical_sql_normalizes(self):
        assert canonical_sql("select  a from t") == canonical_sql(
            "SELECT a FROM t"
        )

    def test_exact_match_ignores_formatting(self):
        assert exact_match("select a from t", "SELECT a FROM t")
        assert not exact_match("SELECT a FROM t", "SELECT b FROM t")

    def test_exact_match_invalid_sql_false(self):
        assert not exact_match("garbage", "SELECT 1")

    def test_execution_match_order_insensitive(self, clinic):
        db, _source, _index = clinic
        assert execution_match(
            db,
            "SELECT name FROM patients ORDER BY name",
            "SELECT name FROM patients ORDER BY name DESC",
        )

    def test_execution_match_different_results(self, clinic):
        db, _source, _index = clinic
        assert not execution_match(
            db,
            "SELECT COUNT(*) FROM patients",
            "SELECT COUNT(*) FROM patients WHERE city = 'lyon'",
        )


class TestFineTuner:
    def test_learns_synonyms_and_improves(self, clinic):
        db, source, index = clinic
        dataset = Text2SqlDataset.from_domain(
            "clinic", n_train=80, n_test=40, seed=3
        )
        tuner = FineTuner(index, db)
        adapter, report = tuner.fit(dataset.train, domain="clinic")
        assert len(adapter) > 0
        learned_phrases = {entry.phrase for entry in report.learned}
        # The gold domain synonyms are recovered.
        assert {"cases", "appointments", "physician"} <= learned_phrases

        base = SqlCoderModel("base")
        tuned = adapter.apply_to(base)
        base_report = evaluate_model(base, source, db, dataset.test)
        tuned_report = evaluate_model(tuned, source, db, dataset.test)
        assert tuned_report.execution_accuracy > base_report.execution_accuracy
        assert tuned_report.execution_accuracy >= 0.9

    def test_training_report_epochs(self, clinic):
        db, _source, index = clinic
        dataset = Text2SqlDataset.from_domain("clinic", n_train=40, n_test=5)
        tuner = FineTuner(index, db, epochs=3)
        _adapter, report = tuner.fit(dataset.train)
        assert report.epochs
        assert report.final_train_accuracy >= 0.9
        # Accuracy is monotonically non-decreasing across epochs.
        accuracies = [e.train_accuracy for e in report.epochs]
        assert accuracies == sorted(accuracies)

    def test_invalid_hyperparameters(self, clinic):
        db, _source, index = clinic
        with pytest.raises(ValueError):
            FineTuner(index, db, min_purity=0.0)
        with pytest.raises(ValueError):
            FineTuner(index, db, epochs=0)

    def test_base_model_untouched_by_adapter(self, clinic):
        db, _source, index = clinic
        adapter = LexiconAdapter("t")
        adapter.lexicon.add_synonym("cases", "table", "patients")
        base = SqlCoderModel("base")
        tuned = adapter.apply_to(base)
        assert "cases" in tuned.lexicon
        assert "cases" not in base.lexicon


class TestAdapters:
    def test_apply_names_model(self):
        adapter = LexiconAdapter("clinic-adapter")
        tuned = adapter.apply_to(SqlCoderModel("base"))
        assert tuned.name == "base+clinic-adapter"


class TestCrossDomainGeneralization:
    @pytest.mark.parametrize("domain", list_domains())
    def test_every_domain_improves(self, domain):
        db = build_spider_database(domain)
        source = EngineSource(db)
        index = SchemaIndex.from_source(source)
        dataset = Text2SqlDataset.from_domain(
            domain, n_train=80, n_test=30, seed=3
        )
        adapter, _report = FineTuner(index, db).fit(dataset.train)
        base = SqlCoderModel("base")
        tuned = adapter.apply_to(base)
        base_ex = evaluate_model(
            base, source, db, dataset.test
        ).execution_accuracy
        tuned_ex = evaluate_model(
            tuned, source, db, dataset.test
        ).execution_accuracy
        assert tuned_ex >= base_ex
        assert tuned_ex >= 0.85
