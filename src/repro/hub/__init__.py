"""DB-GPT-Hub: Text-to-SQL fine-tuning.

The paper's hub fine-tunes Huggingface LLMs on (question, SQL) pairs.
Our simulated Text-to-SQL model's learnable parameter is its *lexicon*
(DESIGN.md), so fine-tuning here is lexicon induction: align question
phrases with the schema elements of the gold SQL, keep alignments with
enough support and purity, and attach them to the model as an adapter —
the same improvement mechanism (domain vocabulary acquisition), fully
measurable with exact-match and execution accuracy.
"""

from repro.hub.adapters import LexiconAdapter
from repro.hub.dataset import Text2SqlDataset
from repro.hub.evaluator import EvalReport, evaluate_model
from repro.hub.trainer import FineTuner, TrainingReport

__all__ = [
    "EvalReport",
    "FineTuner",
    "LexiconAdapter",
    "Text2SqlDataset",
    "TrainingReport",
    "evaluate_model",
]
