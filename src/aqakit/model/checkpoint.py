"""Checkpoints: a text manifest (config plus a tensor table) next to one raw
little-endian float32 blob file."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .decoder import LORA_ALPHA, LORA_RANK, LORA_TARGETS, AudioTextLm, DecoderConfig

MANIFEST_NAME = "manifest.txt"
BLOB_NAME = "tensors.bin"

# config lines in manifest order; those of the fixed adapter layout hold the
# decoder's constants, and load_checkpoint rejects a file with others
_LAYOUT = {"lora_rank": str(LORA_RANK), "lora_alpha": str(LORA_ALPHA),
           "lora_targets": ",".join(LORA_TARGETS)}
_CONFIG_LINES = ("n_layers", "n_heads", "d_model", "vocab_size", "max_seq_len",
                 "lora_rank", "lora_alpha", "d_audio", "n_audio_tokens",
                 "mlp_ratio", "lora_targets")


def _collect_tensors(model: AudioTextLm) -> dict[str, np.ndarray]:
    """Every tensor of the model by its checkpoint name; the arrays are the
    model's own, so writing into them changes the model."""
    tensors = {"base." + name: arr for name, arr in model.base.items()}
    for name, arr in model.trainable_parameters().items():
        tensors[name if name.startswith("audio.") else "lora." + name] = arr
    return tensors


def save_checkpoint(path: str | Path, model: AudioTextLm) -> None:
    """Write manifest + blob into the directory at path (created if needed)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    tensors = _collect_tensors(model)

    # lora_only=1 marked adapter-only directories, which load_checkpoint
    # still rejects when they come from older versions
    lines = ["format=aqakit-checkpoint-v1", "lora_only=0"]
    lines += [f"config.{f}={_LAYOUT[f] if f in _LAYOUT else getattr(model.cfg, f)}"
              for f in _CONFIG_LINES]

    blob = bytearray()
    for name in sorted(tensors):
        arr = tensors[name].astype("<f4")
        offset = len(blob)
        raw = arr.tobytes()
        blob.extend(raw)
        shape = "x".join(str(s) for s in arr.shape) if arr.shape else "scalar"
        lines.append(f"tensor {name} float32 {shape} {offset} {len(raw)}")

    (path / BLOB_NAME).write_bytes(bytes(blob))
    (path / MANIFEST_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_manifest(path: Path) -> tuple[dict[str, str], list[tuple[str, tuple[int, ...], int, int]]]:
    config: dict[str, str] = {}
    table: list[tuple[str, tuple[int, ...], int, int]] = []
    for line in (path / MANIFEST_NAME).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if line.startswith("tensor "):
            _, name, dtype, shape_s, offset_s, nbytes_s = line.split(" ")
            if dtype != "float32":
                raise ValueError(f"unsupported tensor dtype {dtype}")
            shape = tuple() if shape_s == "scalar" else tuple(
                int(s) for s in shape_s.split("x"))
            table.append((name, shape, int(offset_s), int(nbytes_s)))
        elif "=" in line:
            key, value = line.split("=", 1)
            config[key] = value
    return config, table


def load_checkpoint(path: str | Path) -> AudioTextLm:
    """Rebuild a full model from a directory written by save_checkpoint."""
    path = Path(path)
    config, table = _parse_manifest(path)
    if config.get("lora_only") == "1":
        raise ValueError(f"{path} holds only LoRA adapters, not a full model")
    for f, value in _LAYOUT.items():
        if config.get("config." + f) != value:
            raise ValueError(f"{path}: config.{f} is {config.get('config.' + f)}, "
                             f"but the adapter layout is fixed at {f}={value}")
    sizes = {}
    for f in _CONFIG_LINES:
        if f in _LAYOUT:
            continue
        key = "config." + f
        if key not in config:
            raise ValueError(f"{path}: manifest lacks {key}")
        try:
            sizes[f] = int(config[key])
        except ValueError:
            raise ValueError(f"{path}: {key} is {config[key]!r}, "
                             f"not an integer") from None
    cfg = DecoderConfig(**sizes)
    model = AudioTextLm(cfg)
    tensors = _collect_tensors(model)
    missing = set(tensors) - {name for name, *_ in table}
    if missing:
        raise ValueError(f"{path}: checkpoint lacks tensor {min(missing)}")
    blob = (path / BLOB_NAME).read_bytes()
    seen = set()
    for name, shape, offset, nbytes in table:
        if name not in tensors:
            raise ValueError(f"{path}: unexpected tensor {name}")
        if name in seen:
            raise ValueError(f"{path}: tensor {name} is listed twice")
        seen.add(name)
        dst = tensors[name]
        if shape != dst.shape or nbytes != 4 * dst.size:
            raise ValueError(f"{path}: tensor {name} has shape {shape} and {nbytes} "
                             f"bytes, the model expects shape {dst.shape}")
        if offset < 0 or offset + nbytes > len(blob):
            raise ValueError(f"{path}: tensor {name} spans bytes {offset}.."
                             f"{offset + nbytes} of {BLOB_NAME}, which holds "
                             f"{len(blob)}")
        raw = np.frombuffer(blob, dtype="<f4", count=dst.size, offset=offset)
        dst[...] = raw.reshape(shape)
    return model
