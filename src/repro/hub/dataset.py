"""Training/evaluation datasets of (question, SQL) pairs."""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass
from typing import Optional

from repro.datasets.spider import Text2SqlExample, generate_examples
from repro.fileio import write_text_atomic


@dataclass
class Text2SqlDataset:
    """A train/test split over one domain's examples."""

    domain: str
    train: list[Text2SqlExample]
    test: list[Text2SqlExample]

    @classmethod
    def from_domain(
        cls,
        domain: str,
        n_train: int = 60,
        n_test: int = 40,
        seed: int = 0,
        language: str = "en",
        synonym_rate: float = 0.7,
    ) -> "Text2SqlDataset":
        """Generate a split with disjoint random streams."""
        train = generate_examples(
            domain, n=n_train, seed=seed, language=language,
            synonym_rate=synonym_rate,
        )
        test = generate_examples(
            domain, n=n_test, seed=seed + 10_000, language=language,
            synonym_rate=synonym_rate,
        )
        return cls(domain=domain, train=train, test=test)

    @classmethod
    def from_pairs(
        cls,
        domain: str,
        pairs: list[tuple[str, str]],
        test_fraction: float = 0.3,
        seed: int = 0,
    ) -> "Text2SqlDataset":
        """Build a dataset from user-supplied (question, sql) pairs."""
        if not pairs:
            raise ValueError("need at least one (question, sql) pair")
        examples = [
            Text2SqlExample(question=q, sql=s, domain=domain)
            for q, s in pairs
        ]
        rng = random.Random(seed)
        shuffled = list(examples)
        rng.shuffle(shuffled)
        cut = max(1, int(len(shuffled) * (1 - test_fraction)))
        return cls(domain=domain, train=shuffled[:cut], test=shuffled[cut:])

    def save(self, path: pathlib.Path | str) -> None:
        payload = {
            "domain": self.domain,
            "train": [vars(e) for e in self.train],
            "test": [vars(e) for e in self.test],
        }
        write_text_atomic(path, json.dumps(payload, ensure_ascii=False))

    @classmethod
    def load(cls, path: pathlib.Path | str) -> "Text2SqlDataset":
        payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        return cls(
            domain=payload["domain"],
            train=[Text2SqlExample(**e) for e in payload["train"]],
            test=[Text2SqlExample(**e) for e in payload["test"]],
        )
