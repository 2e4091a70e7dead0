"""Toy frozen-decoder audio language model: LoRA adapters, hand-written
backprop, sampling, alignment losses, checkpoints."""

from .checkpoint import load_checkpoint, load_lora_into, save_checkpoint
from .decoder import (
    AudioTextLm,
    DecoderConfig,
    TrainingExample,
    count_lora_params,
    llama_7b_geometry,
)
from .gradcheck import finite_diff_check
from .losses import AlignmentBatch, alignment_losses, next_token_loss
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
)

__all__ = [
    "AudioTextLm", "DecoderConfig", "TrainingExample", "count_lora_params",
    "llama_7b_geometry", "finite_diff_check", "AlignmentBatch",
    "alignment_losses", "next_token_loss",
    "GenerationConfig", "generate", "sample_next_id",
    "truncated_distribution", "save_checkpoint", "load_checkpoint",
    "load_lora_into", "BOS_ID", "EOS_ID", "PAD_ID", "SEP_ID", "VOCAB_SIZE",
    "build_qa_ids", "decode_ids", "encode_text",
]
