"""Checkpoints: a text manifest next to one raw little-endian float32 blob
file. Every manifest line follows from the model's config: the format line,
lora_only=0, one config.NAME=VALUE line per config field, then one
`tensor NAME float32 SHAPE OFFSET NBYTES` line per row of _table, the
tensors back to back in the blob. load_checkpoint reads the settable config
values, requires the blob to hold the bytes that config implies and the
manifest to be the one save_checkpoint writes for that config, line for
line; only then does it read each tensor into a new array, drawing none."""

from __future__ import annotations

import dataclasses
import math
from itertools import zip_longest
from pathlib import Path

import numpy as np

from ..files import atomic_write, read_text
from .decoder import (LORA_ALPHA, LORA_RANK, LORA_TARGETS, AudioTextLm, DecoderConfig,
                      tensor_shapes)

MANIFEST_NAME = "manifest.txt"
BLOB_NAME = "tensors.bin"

# config lines in manifest order; those of the fixed adapter layout hold the
# decoder's constants, the others a DecoderConfig field each
_LAYOUT = {"lora_rank": str(LORA_RANK), "lora_alpha": str(LORA_ALPHA),
           "lora_targets": ",".join(LORA_TARGETS)}
_CONFIG_LINES = ("n_layers", "n_heads", "d_model", "vocab_size", "max_seq_len",
                 "lora_rank", "lora_alpha", "d_audio", "n_audio_tokens",
                 "mlp_ratio", "lora_targets")


def _table(cfg: DecoderConfig) -> list[tuple[str, str, str, tuple[int, ...], int]]:
    """One row per tensor of a model of config cfg: (checkpoint name, group,
    name, shape, byte offset in the blob), in checkpoint-name order, which is
    the blob's. Group and name are those of tensor_shapes and AudioTextLm."""
    rows, offset = [], 0
    for row in sorted((("" if group == "audio" else group + ".") + name, group, name, shape)
                      for group, shapes in tensor_shapes(cfg).items()
                      for name, shape in shapes.items()):
        rows.append((*row, offset))
        offset += 4 * math.prod(row[3])
    return rows


def _blob_bytes(cfg: DecoderConfig) -> int:
    """The size of the blob of a model of config cfg. Every layer holds the
    same tensors, so the shape table is built for no layer and for one, not
    for cfg.n_layers, and nothing of the size of a tensor is allocated."""
    def nbytes(n_layers: int) -> int:
        shapes = tensor_shapes(dataclasses.replace(cfg, n_layers=n_layers))
        return 4 * sum(math.prod(shape) for group in shapes.values()
                       for shape in group.values())

    none = nbytes(0)
    return none + cfg.n_layers * (nbytes(1) - none)


def _manifest_lines(cfg: DecoderConfig) -> list[str]:
    """The lines of the manifest save_checkpoint writes for a model of
    config cfg. lora_only=1 marked the adapter-only directories of older
    versions, which load_checkpoint rejects."""
    lines = ["format=aqakit-checkpoint-v1", "lora_only=0"]
    lines += [f"config.{f}={_LAYOUT[f] if f in _LAYOUT else getattr(cfg, f)}"
              for f in _CONFIG_LINES]
    for name, _, _, shape, offset in _table(cfg):
        dims = "x".join(str(s) for s in shape)
        lines.append(f"tensor {name} float32 {dims} {offset} {4 * math.prod(shape)}")
    return lines


def save_checkpoint(path: str | Path, model: AudioTextLm) -> None:
    """Write the blob, then the manifest, into the directory at path
    (created if needed), each file atomically. The manifest follows from the
    config alone, so a save of the same config stopped between the two
    files still leaves a checkpoint that loads. A tensor not finite in
    float32 raises RuntimeError before any write."""
    path = Path(path)
    blob = bytearray()
    for name, group, key, _, _ in _table(model.cfg):
        with np.errstate(over="ignore"):
            arr = getattr(model, group)[key].astype("<f4")
        if not np.isfinite(arr).all():
            raise RuntimeError(f"{path}: tensor {name} does not fit float32")
        blob.extend(arr.tobytes())

    atomic_write(path / BLOB_NAME, blob)
    atomic_write(path / MANIFEST_NAME, "\n".join(_manifest_lines(model.cfg)) + "\n")


def load_checkpoint(path: str | Path) -> AudioTextLm:
    """Rebuild a full model from a directory written by save_checkpoint.
    A manifest other than the one save_checkpoint writes for its config,
    or a blob of another size, raises ValueError naming the manifest file,
    and the line at fault when there is one."""
    manifest = Path(path) / MANIFEST_NAME

    def bad(problem, line_no: int | None = None) -> ValueError:
        where = manifest if line_no is None else f"{manifest}:{line_no}"
        return ValueError(f"{where}: {problem}")

    got = read_text(manifest).split("\n")
    if got[-1] == "":   # the newline that ends the last line
        got.pop()
    config = {}
    for line_no, line in enumerate(got, start=1):
        key, _, value = line.partition("=")
        config[key] = (value, line_no)
    sizes = {}
    for name in (f.name for f in dataclasses.fields(DecoderConfig) if f.init):
        key = "config." + name
        if key not in config:
            raise bad(f"manifest lacks {key}")
        value, line_no = config[key]
        try:
            sizes[name] = int(value)
        except ValueError:
            raise bad(f"{key} is {value!r}, not an integer", line_no) from None
    try:
        cfg = DecoderConfig(**sizes)
    except ValueError as exc:
        raise bad(exc) from None

    # the blob's size is checked before the manifest's lines, which take
    # a line per tensor, and before the model is built
    blob_path = Path(path) / BLOB_NAME
    size, held = _blob_bytes(cfg), blob_path.stat().st_size
    if held != size:
        raise bad(f"the tensor table spans {size} bytes, but {blob_path} holds {held}")
    want = _manifest_lines(cfg)
    for line_no, pair in enumerate(zip_longest(want, got), start=1):
        if pair[0] != pair[1]:
            w, g = ("the end of the file" if s is None else repr(s) for s in pair)
            raise bad(f"expected {w}, got {g}", line_no)

    table = _table(cfg)
    blob = blob_path.read_bytes()
    tensors: dict[str, dict[str, np.ndarray]] = {}
    for line_no, (name, group, key, shape, offset) in enumerate(
            table, start=len(want) - len(table) + 1):
        raw = np.frombuffer(blob, "<f4", math.prod(shape), offset)
        if not np.isfinite(raw).all():
            raise bad(f"tensor {name} holds non-finite values", line_no)
        tensors.setdefault(group, {})[key] = raw.reshape(shape).astype(np.float64)
    return AudioTextLm.from_tensors(cfg, tensors)
