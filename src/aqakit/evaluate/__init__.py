"""Scoring for free-text audio QA outputs: embedding-cosine classification,
caption overlap, LLM-judged instruction following, and the ordering/counting
probes."""

from .caption import caption_overlap_f1
from .classify import (ClassificationResult, LabelSet, accuracy,
                       classify_corpus, classify_output,
                       mean_average_precision, micro_f1)
from .judge import (JUDGE_PROMPT, JudgeReport, judge_instruction_following,
                    judge_rate)
from .probes import (DEFAULT_ORDER_PATTERNS, ProbeReport, counting_probe,
                     extract_first_sound, order_accuracy, order_probe,
                     parse_count, pearson)
from .providers import (EmbeddingProvider, HashedBagOfWordsProvider,
                        RemoteEmbeddingProvider, cosine)

__all__ = [
    "ClassificationResult",
    "DEFAULT_ORDER_PATTERNS",
    "EmbeddingProvider",
    "HashedBagOfWordsProvider",
    "JUDGE_PROMPT",
    "JudgeReport",
    "LabelSet",
    "ProbeReport",
    "RemoteEmbeddingProvider",
    "accuracy",
    "caption_overlap_f1",
    "classify_corpus",
    "classify_output",
    "cosine",
    "counting_probe",
    "extract_first_sound",
    "judge_instruction_following",
    "judge_rate",
    "mean_average_precision",
    "micro_f1",
    "order_accuracy",
    "order_probe",
    "parse_count",
    "pearson",
]
