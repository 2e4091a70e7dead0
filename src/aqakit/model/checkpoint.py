"""Checkpoints: a text manifest (config plus a tensor table) next to one raw
little-endian float32 blob file."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..files import read_text
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
    return {**{"base." + name: arr for name, arr in model.base.items()},
            **{"lora." + name: arr for name, arr in model.lora.items()},
            **model.audio}


def save_checkpoint(path: str | Path, model: AudioTextLm) -> None:
    """Write manifest + blob into the directory at path (created if needed).
    A tensor not finite in float32 raises RuntimeError before any write."""
    path = Path(path)
    tensors = _collect_tensors(model)

    # lora_only=1 marked adapter-only directories, which load_checkpoint
    # still rejects when they come from older versions
    lines = ["format=aqakit-checkpoint-v1", "lora_only=0"]
    lines += [f"config.{f}={_LAYOUT[f] if f in _LAYOUT else getattr(model.cfg, f)}"
              for f in _CONFIG_LINES]

    blob = bytearray()
    for name in sorted(tensors):
        with np.errstate(over="ignore"):
            arr = tensors[name].astype("<f4")
        if not np.isfinite(arr).all():
            raise RuntimeError(f"{path}: tensor {name} does not fit float32")
        offset = len(blob)
        raw = arr.tobytes()
        blob.extend(raw)
        shape = "x".join(str(s) for s in arr.shape) if arr.shape else "scalar"
        lines.append(f"tensor {name} float32 {shape} {offset} {len(raw)}")

    path.mkdir(parents=True, exist_ok=True)
    (path / BLOB_NAME).write_bytes(bytes(blob))
    (path / MANIFEST_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _tensor_entry(line: str) -> tuple[str, tuple[int, ...], int, int]:
    """(name, shape, offset, nbytes) of one tensor line."""
    fields = line.split(" ")
    if len(fields) != 6:
        raise ValueError(f"tensor line has {len(fields)} fields, expected 6: "
                         f"tensor NAME float32 SHAPE OFFSET NBYTES")
    _, name, dtype, shape_s, offset_s, nbytes_s = fields
    if dtype != "float32":
        raise ValueError(f"unsupported tensor dtype {dtype}")
    try:
        shape = tuple() if shape_s == "scalar" else tuple(
            int(s) for s in shape_s.split("x"))
        return name, shape, int(offset_s), int(nbytes_s)
    except ValueError:
        raise ValueError(f"tensor {name}: shape {shape_s!r}, offset "
                         f"{offset_s!r} and size {nbytes_s!r} must be "
                         f"integers") from None


def _parse_manifest(manifest: Path):
    """The config and tensor table of a manifest file. config maps the key
    of each key=value line to (value, line number); table holds (name,
    shape, offset, nbytes, line number) per tensor line. Any other line,
    or a tensor line that does not parse, raises ValueError naming the
    file and the line."""
    config: dict[str, tuple[str, int]] = {}
    table = []
    for line_no, line in enumerate(read_text(manifest).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            if line.startswith("tensor "):
                table.append((*_tensor_entry(line), line_no))
            elif "=" in line:
                key, value = line.split("=", 1)
                config[key] = (value, line_no)
            else:
                raise ValueError("neither key=value nor a tensor line")
        except ValueError as exc:
            raise ValueError(f"{manifest}:{line_no}: {exc}") from None
    return config, table


def load_checkpoint(path: str | Path) -> AudioTextLm:
    """Rebuild a full model from a directory written by save_checkpoint.
    A manifest that does not describe such a model raises ValueError
    naming the manifest file, and the line at fault when there is one."""
    manifest = Path(path) / MANIFEST_NAME
    config, table = _parse_manifest(manifest)

    def bad(problem, line_no: int | None = None) -> ValueError:
        where = manifest if line_no is None else f"{manifest}:{line_no}"
        return ValueError(f"{where}: {problem}")

    value, line_no = config.get("lora_only", (None, None))
    if value == "1":
        raise bad("holds only LoRA adapters, not a full model", line_no)
    for f, want in _LAYOUT.items():
        value, line_no = config.get("config." + f, (None, None))
        if value != want:
            raise bad(f"config.{f} is {value}, but the adapter layout is "
                      f"fixed at {f}={want}", line_no)
    sizes = {}
    for f in _CONFIG_LINES:
        if f in _LAYOUT:
            continue
        key = "config." + f
        if key not in config:
            raise bad(f"manifest lacks {key}")
        value, line_no = config[key]
        try:
            sizes[f] = int(value)
        except ValueError:
            raise bad(f"{key} is {value!r}, not an integer", line_no) from None
    try:
        model = AudioTextLm(DecoderConfig(**sizes))
    except ValueError as exc:
        raise bad(exc) from None
    tensors = _collect_tensors(model)
    missing = set(tensors) - {name for name, *_ in table}
    if missing:
        raise bad(f"checkpoint lacks tensor {min(missing)}")
    blob = (Path(path) / BLOB_NAME).read_bytes()
    seen = set()
    # save_checkpoint writes the tensors back to back in manifest order, so
    # an offset anywhere else points into another tensor's bytes
    end = 0
    for name, shape, offset, nbytes, line_no in table:
        if name not in tensors:
            raise bad(f"unexpected tensor {name}", line_no)
        if name in seen:
            raise bad(f"tensor {name} is listed twice", line_no)
        seen.add(name)
        dst = tensors[name]
        if shape != dst.shape or nbytes != 4 * dst.size:
            raise bad(f"tensor {name} has shape {shape} and {nbytes} bytes, "
                      f"the model expects shape {dst.shape}", line_no)
        if offset != end:
            raise bad(f"tensor {name} starts at byte {offset} of {BLOB_NAME}, "
                      f"not at {end}: the tensors lie back to back in "
                      f"manifest order", line_no)
        end = offset + nbytes
        if end > len(blob):
            raise bad(f"tensor {name} spans bytes {offset}..{end} "
                      f"of {BLOB_NAME}, which holds {len(blob)}", line_no)
        raw = np.frombuffer(blob, dtype="<f4", count=dst.size, offset=offset)
        if not np.isfinite(raw).all():
            raise bad(f"tensor {name} holds non-finite values", line_no)
        dst[...] = raw.reshape(shape)
    if end != len(blob):
        raise bad(f"tensor {name} ends at byte {end}, but {BLOB_NAME} holds "
                  f"{len(blob)}", line_no)
    return model
