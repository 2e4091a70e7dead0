"""Dataset generation: audio metadata in, QA manifests out."""

from .aig import (AIG_PROMPT, DEFAULT_UNANSWERABLE_PATTERNS, build_aig_prompt,
                  detect_unanswerable, gen_open_ended_qa, open_ended_quota,
                  parse_aig_response)
from .closed import (DEFAULT_QUESTION_BANK, gen_acoustic_feature_qa,
                     gen_caption_qa, gen_classification_qa,
                     gen_closed_manifest, gen_closed_qa, gen_temporal_qa)
from .features import (feature_prompt, gen_feature_bank, load_feature_bank,
                       save_feature_bank)
from .llm import RateLimiter, RealLlmClient, ReplayLlmClient, SynthLlmClient
from .meta import (AudioMeta, SoundEvent, format_span, meta_from_dict,
                   meta_to_dict, read_meta_jsonl, serialize_meta,
                   write_meta_jsonl)
from .qa import (TASK_KINDS, QAPair, qa_from_dict, qa_to_dict, read_manifest,
                 validate_manifest, write_manifest)
from .sampler import sample_audioset
from .stats import DatasetStats, compute_dataset_stats

__all__ = [
    "AIG_PROMPT", "DEFAULT_UNANSWERABLE_PATTERNS", "build_aig_prompt",
    "detect_unanswerable", "gen_open_ended_qa", "open_ended_quota",
    "parse_aig_response", "DEFAULT_QUESTION_BANK",
    "gen_acoustic_feature_qa", "gen_caption_qa", "gen_classification_qa",
    "gen_closed_manifest", "gen_closed_qa", "gen_temporal_qa",
    "feature_prompt", "gen_feature_bank",
    "load_feature_bank", "save_feature_bank", "RateLimiter", "RealLlmClient",
    "ReplayLlmClient", "SynthLlmClient", "AudioMeta", "SoundEvent", "format_span",
    "meta_from_dict", "meta_to_dict", "read_meta_jsonl", "serialize_meta",
    "write_meta_jsonl", "TASK_KINDS", "QAPair",
    "qa_from_dict", "qa_to_dict", "read_manifest", "validate_manifest",
    "write_manifest", "sample_audioset", "DatasetStats", "compute_dataset_stats",
]
