"""Checkpoints: a text manifest (config plus a tensor table) next to one raw
little-endian float32 blob file. LoRA adapters can be saved and loaded
independently of the base weights."""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import numpy as np

from ..frontend import PatchEncoder, ProjectionLayer
from .decoder import AudioTextLm, DecoderConfig

MANIFEST_NAME = "manifest.txt"
BLOB_NAME = "tensors.bin"

_CONFIG_FIELDS = ("n_layers", "n_heads", "d_model", "vocab_size", "max_seq_len",
                  "lora_rank", "lora_alpha", "d_audio", "n_audio_tokens", "mlp_ratio")


def _collect_tensors(model: AudioTextLm, lora_only: bool) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    if not lora_only:
        for name, arr in model.base.items():
            tensors["base." + name] = arr
    for name, arr in model.lora.items():
        tensors["lora." + name] = arr
    if not lora_only:
        tensors["audio.enc.weight"] = model.patch_encoder.weight
        tensors["audio.enc.bias"] = model.patch_encoder.bias
        tensors["audio.enc.pos"] = model.patch_encoder.pos_offsets
        tensors["audio.proj.weight"] = model.projection.weight
        tensors["audio.proj.bias"] = model.projection.bias
    return tensors


def save_checkpoint(path: str | Path, model: AudioTextLm,
                    lora_only: bool = False) -> None:
    """Write manifest + blob into the directory at path (created if needed)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    tensors = _collect_tensors(model, lora_only)

    lines = [f"format=aqakit-checkpoint-v1"]
    lines.append(f"lora_only={int(lora_only)}")
    for f in _CONFIG_FIELDS:
        lines.append(f"config.{f}={getattr(model.cfg, f)}")
    lines.append("config.lora_targets=" + ",".join(model.cfg.lora_targets))

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


def _read_tensors(path: Path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    config, table = _parse_manifest(path)
    blob = (path / BLOB_NAME).read_bytes()
    tensors: dict[str, np.ndarray] = {}
    for name, shape, offset, nbytes in table:
        raw = np.frombuffer(blob, dtype="<f4", count=nbytes // 4, offset=offset)
        tensors[name] = raw.reshape(shape).astype(np.float64)
    return config, tensors


def load_checkpoint(path: str | Path) -> AudioTextLm:
    """Rebuild a full model from a directory written by save_checkpoint."""
    path = Path(path)
    config, tensors = _read_tensors(path)
    if config.get("lora_only") == "1":
        raise ValueError(f"{path} holds only LoRA adapters, not a full model")
    defaults = {f.name: f.default for f in fields(DecoderConfig)}
    cfg = DecoderConfig(
        lora_targets=tuple(config["config.lora_targets"].split(",")),
        **{f: type(defaults[f])(config["config." + f]) for f in _CONFIG_FIELDS})
    model = AudioTextLm(cfg)
    for name, arr in tensors.items():
        if name.startswith("base."):
            model.base[name[len("base."):]] = arr
        elif name.startswith("lora."):
            model.lora[name[len("lora."):]] = arr
    model.patch_encoder = PatchEncoder(
        weight=tensors["audio.enc.weight"],
        bias=tensors["audio.enc.bias"],
        pos_offsets=tensors["audio.enc.pos"],
    )
    model.projection = ProjectionLayer(
        weight=tensors["audio.proj.weight"],
        bias=tensors["audio.proj.bias"],
    )
    return model


def load_lora_into(path: str | Path, model: AudioTextLm) -> None:
    """Overwrite the model's adapters with ones stored at path."""
    _, tensors = _read_tensors(Path(path))
    for name, arr in tensors.items():
        if not name.startswith("lora."):
            continue
        key = name[len("lora."):]
        if key not in model.lora:
            raise ValueError(f"adapter tensor {key} does not exist in this model")
        if model.lora[key].shape != arr.shape:
            raise ValueError(f"adapter tensor {key} has shape {arr.shape}, "
                             f"expected {model.lora[key].shape}")
        model.lora[key] = arr
