"""Toy frozen-decoder audio language model: LoRA adapters, hand-written
backprop, the next-token loss, sampling, checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .decoder import (
    AudioTextLm,
    DecoderConfig,
    TrainingExample,
    count_lora_params,
    llama_7b_geometry,
)
from .gradcheck import finite_diff_check
from .losses import next_token_loss
from .sampling import (
    GenerationConfig,
    generate,
    sample_next_id,
    truncated_distribution,
)
from .tokenizer import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    SEP_ID,
    VOCAB_SIZE,
    build_qa_ids,
    decode_ids,
    encode_text,
    prompt_ids,
)

__all__ = [
    "AudioTextLm", "DecoderConfig", "TrainingExample", "count_lora_params",
    "llama_7b_geometry", "finite_diff_check", "next_token_loss",
    "GenerationConfig", "generate", "sample_next_id",
    "truncated_distribution", "save_checkpoint", "load_checkpoint",
    "BOS_ID", "EOS_ID", "PAD_ID", "SEP_ID", "VOCAB_SIZE",
    "build_qa_ids", "decode_ids", "encode_text", "prompt_ids",
]
