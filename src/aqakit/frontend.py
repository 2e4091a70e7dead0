"""Audio frontend: 16 kHz waveform -> log-mel spectrogram -> 16x16 patches
-> toy patch encoder -> 32 pooled audio tokens -> projection to model width.

The whole chain is pure: every function is deterministic in its inputs and
parameters, so it is safe to call concurrently. Parameters are plain numpy
arrays; nothing here mutates them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE_HZ = 16000
MEL_FMIN_HZ = 0.0
MEL_FMAX_HZ = 8000.0
PATCH_SIDE = 16
TOKENS_PER_CLIP = 32
TOKEN_RATE_HZ = 3.2


@dataclass
class Waveform:
    """Mono audio at exactly 16 kHz, amplitudes in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int = SAMPLE_RATE_HZ

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("waveform must be one-dimensional mono audio")
        if self.sample_rate_hz != SAMPLE_RATE_HZ:
            raise ValueError(
                f"sample rate must be {SAMPLE_RATE_HZ} Hz, got {self.sample_rate_hz}"
            )
        if self.samples.size == 0:
            raise ValueError("empty waveform")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")


@dataclass
class FbankConfig:
    n_mels: int = 128
    window_ms: float = 25.0
    hop_ms: float = 10.0
    target_frames: int = 1024
    log_floor: float = 1e-10
    # smallest power of two >= the 400-sample window
    n_fft: int = 512

    def __post_init__(self) -> None:
        if self.window_ms <= self.hop_ms:
            raise ValueError("window must be longer than hop")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_ms * SAMPLE_RATE_HZ / 1000.0))

    @property
    def hop_samples(self) -> int:
        return int(round(self.hop_ms * SAMPLE_RATE_HZ / 1000.0))


@dataclass
class LogMelSpectrogram:
    """target_frames x n_mels matrix of log mel energies."""

    frames: np.ndarray

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ValueError("spectrogram must be a 2-D matrix")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("spectrogram contains non-finite entries")


@dataclass
class PatchGrid:
    """time_patches x freq_patches grid of flattened 16x16 tiles."""

    patches: np.ndarray
    patch_side: int = PATCH_SIDE

    def __post_init__(self) -> None:
        self.patches = np.asarray(self.patches, dtype=np.float64)
        if self.patches.ndim != 3:
            raise ValueError("patch grid must be 3-D: time x freq x values")
        if self.patches.shape[2] != self.patch_side * self.patch_side:
            raise ValueError("patch value count must equal patch_side**2")


@dataclass
class AudioTokenSequence:
    """Fixed-length sequence of audio embeddings in temporal order."""

    tokens: np.ndarray
    frame_rate_hz: float = TOKEN_RATE_HZ

    def __post_init__(self) -> None:
        self.tokens = np.asarray(self.tokens, dtype=np.float64)
        if self.tokens.ndim != 2:
            raise ValueError("token sequence must be 2-D: time x dim")


def hz_to_mel(hz: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate_hz: int = SAMPLE_RATE_HZ,
                   fmin_hz: float = MEL_FMIN_HZ, fmax_hz: float = MEL_FMAX_HZ) -> np.ndarray:
    """Triangular mel filters as an (n_mels, n_fft//2 + 1) matrix.

    Filter centers are spaced evenly on the HTK mel scale between fmin and
    fmax; each filter ramps linearly in Hz from its left neighbor's center to
    its own and back down to its right neighbor's.
    """
    mel_points = np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax_hz), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate_hz / n_fft

    bank = np.zeros((n_mels, bin_freqs.size), dtype=np.float64)
    for m in range(n_mels):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (bin_freqs - left) / (center - left)
        down = (right - bin_freqs) / (right - center)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    return bank


def mel_center_freqs_hz(n_mels: int = 128) -> np.ndarray:
    """Center frequency in Hz of each mel filter under the default span."""
    mel_points = np.linspace(hz_to_mel(MEL_FMIN_HZ), hz_to_mel(MEL_FMAX_HZ), n_mels + 2)
    return np.asarray(mel_to_hz(mel_points[1:-1]))


def compute_fbank(w: Waveform, cfg: FbankConfig | None = None) -> LogMelSpectrogram:
    """Log mel filterbank features: 25 ms Hanning window every 10 ms.

    Windowed frames are zero-padded right to n_fft, power spectra are pushed
    through the mel filterbank, and energies are clamped at cfg.log_floor
    before the natural log. Output is padded with log(log_floor) rows, or
    truncated, to exactly cfg.target_frames rows.
    """
    cfg = cfg or FbankConfig()
    win = cfg.window_samples
    hop = cfg.hop_samples
    x = w.samples
    if x.size < win:
        raise ValueError(f"waveform shorter than one window ({win} samples)")

    n_frames = (x.size - win) // hop + 1
    window = np.hanning(win)
    bank = mel_filterbank(cfg.n_mels, cfg.n_fft, w.sample_rate_hz)

    n_keep = min(n_frames, cfg.target_frames)
    frames = np.full((cfg.target_frames, cfg.n_mels), np.log(cfg.log_floor),
                     dtype=np.float64)
    for i in range(n_keep):
        seg = x[i * hop:i * hop + win] * window
        spectrum = np.fft.rfft(seg, n=cfg.n_fft)
        power = np.abs(spectrum) ** 2
        mel_energy = bank @ power
        frames[i] = np.log(np.maximum(mel_energy, cfg.log_floor))
    return LogMelSpectrogram(frames)


def patchify(s: LogMelSpectrogram, patch_side: int = PATCH_SIDE) -> PatchGrid:
    """Tile the spectrogram into non-overlapping square patches.

    A 1024x128 input becomes a 64 (time) x 8 (frequency) grid of flattened
    16x16 tiles. The tiling is lossless: reassemble_patches inverts it.
    """
    frames = s.frames
    t_dim, f_dim = frames.shape
    if t_dim % patch_side or f_dim % patch_side:
        raise ValueError(
            f"spectrogram shape {frames.shape} not divisible by patch side {patch_side}"
        )
    t_patches = t_dim // patch_side
    f_patches = f_dim // patch_side
    tiled = frames.reshape(t_patches, patch_side, f_patches, patch_side)
    grid = tiled.transpose(0, 2, 1, 3).reshape(t_patches, f_patches, patch_side * patch_side)
    return PatchGrid(grid.copy(), patch_side=patch_side)


def reassemble_patches(g: PatchGrid) -> LogMelSpectrogram:
    """Inverse of patchify; exact, not approximate."""
    t_patches, f_patches, _ = g.patches.shape
    side = g.patch_side
    tiled = g.patches.reshape(t_patches, f_patches, side, side)
    frames = tiled.transpose(0, 2, 1, 3).reshape(t_patches * side, f_patches * side)
    return LogMelSpectrogram(frames.copy())


@dataclass
class PatchEncoder:
    """Single linear layer over flattened patches plus learned positional
    offsets, standing in for a pretrained audio transformer at toy scale."""

    weight: np.ndarray  # (patch_values, d_audio)
    bias: np.ndarray  # (d_audio,)
    pos_offsets: np.ndarray  # (time_patches, freq_patches, d_audio)

    @property
    def d_audio(self) -> int:
        return self.weight.shape[1]

    @classmethod
    def create(cls, d_audio: int = 64, patch_values: int = PATCH_SIDE * PATCH_SIDE,
               grid_shape: tuple[int, int] = (64, 8), seed: int = 0,
               init_scale: float = 0.02) -> "PatchEncoder":
        rng = np.random.default_rng(seed)
        weight = rng.normal(0.0, init_scale, size=(patch_values, d_audio))
        bias = np.zeros(d_audio)
        pos = rng.normal(0.0, init_scale, size=(*grid_shape, d_audio))
        return cls(weight=weight, bias=bias, pos_offsets=pos)


def encode_patches(g: PatchGrid, enc: PatchEncoder) -> np.ndarray:
    """One embedding per patch: (time_patches, freq_patches, d_audio)."""
    if g.patches.shape[2] != enc.weight.shape[0]:
        raise ValueError(
            f"patch value count {g.patches.shape[2]} does not match encoder "
            f"input dim {enc.weight.shape[0]}"
        )
    emb = g.patches @ enc.weight + enc.bias
    if enc.pos_offsets.shape != emb.shape:
        raise ValueError(
            f"positional offsets shape {enc.pos_offsets.shape} does not "
            f"match embedding grid {emb.shape}"
        )
    return emb + enc.pos_offsets


def pool_tokens(e: np.ndarray) -> AudioTokenSequence:
    """Frequency mean pooling plus 2x temporal downsampling.

    token[t] is the mean of the 2*n_freq embeddings in grid rows 2t and 2t+1,
    so a 64x8 grid yields exactly 32 tokens.
    """
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 3:
        raise ValueError("embedding grid must be 3-D: time x freq x dim")
    t_dim = e.shape[0]
    if t_dim % 2:
        raise ValueError(f"time dimension {t_dim} must be even for 2x downsampling")
    pooled = e.reshape(t_dim // 2, 2 * e.shape[1], e.shape[2]).mean(axis=1)
    return AudioTokenSequence(pooled)


@dataclass
class ProjectionLayer:
    """Affine map from the audio embedding width to the decoder width."""

    weight: np.ndarray  # (d_audio, d_model)
    bias: np.ndarray  # (d_model,)

    @classmethod
    def create(cls, d_audio: int, d_model: int, seed: int = 0,
               init_scale: float = 0.02) -> "ProjectionLayer":
        rng = np.random.default_rng(seed)
        return cls(weight=rng.normal(0.0, init_scale, size=(d_audio, d_model)),
                   bias=np.zeros(d_model))


def project_tokens(t: AudioTokenSequence, p: ProjectionLayer) -> AudioTokenSequence:
    if t.tokens.shape[1] != p.weight.shape[0]:
        raise ValueError(
            f"token dim {t.tokens.shape[1]} does not match projection input "
            f"dim {p.weight.shape[0]}"
        )
    return AudioTokenSequence(t.tokens @ p.weight + p.bias)


def waveform_to_tokens(w: Waveform, enc: PatchEncoder, proj: ProjectionLayer,
                       cfg: FbankConfig | None = None) -> AudioTokenSequence:
    """Full pipeline: waveform -> 32 projected audio tokens."""
    return project_tokens(pool_tokens(encode_patches(patchify(compute_fbank(w, cfg)), enc)), proj)


# -- WAV and spectrogram persistence ----------------------------------------

def read_wav(path: str | Path) -> Waveform:
    """Read a mono 16-bit PCM 16 kHz RIFF WAV file.

    Anything else (other rates, stereo, float or 8-bit encodings) is rejected
    rather than resampled or downmixed.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (chunk_len,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + chunk_len]
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + chunk_len + (chunk_len & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format != 1 or bits != 16:
        raise ValueError(f"{path}: only 16-bit PCM is supported")
    if channels != 1:
        raise ValueError(f"{path}: only mono audio is supported, got {channels} channels")
    if rate != SAMPLE_RATE_HZ:
        raise ValueError(f"{path}: sample rate must be {SAMPLE_RATE_HZ}, got {rate}")
    ints = np.frombuffer(data, dtype="<i2")
    return Waveform(ints.astype(np.float64) / 32768.0, sample_rate_hz=rate)


def write_wav(path: str | Path, w: Waveform) -> None:
    """Write a Waveform as mono 16-bit PCM RIFF, little-endian throughout."""
    scaled = np.round(np.clip(w.samples, -1.0, 1.0) * 32768.0)
    ints = np.clip(scaled, -32768, 32767).astype("<i2")
    data = ints.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, w.sample_rate_hz,
                      w.sample_rate_hz * 2, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(data)) + data
    blob = b"RIFF" + struct.pack("<I", len(body)) + body
    Path(path).write_bytes(blob)


def save_spectrogram(path: str | Path, s: LogMelSpectrogram) -> None:
    """Persist as an 8-byte (frames, mels) header plus row-major float32
    little-endian values, with a sidecar text manifest at <path>.manifest.txt."""
    path = Path(path)
    frames, mels = s.frames.shape
    header = struct.pack("<II", frames, mels)
    path.write_bytes(header + s.frames.astype("<f4").tobytes())
    sidecar = path.with_name(path.name + ".manifest.txt")
    sidecar.write_text(
        f"frames={frames}\nmels={mels}\ndtype=float32-le\nlayout=row-major\n",
        encoding="utf-8",
    )


def load_spectrogram(path: str | Path) -> LogMelSpectrogram:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated spectrogram file")
    frames, mels = struct.unpack_from("<II", raw, 0)
    values = np.frombuffer(raw, dtype="<f4", offset=8)
    if values.size != frames * mels:
        raise ValueError(
            f"{path}: header promises {frames}x{mels} values, found {values.size}"
        )
    return LogMelSpectrogram(values.reshape(frames, mels).astype(np.float64))
