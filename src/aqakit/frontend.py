"""Audio frontend: 16 kHz WAV IO and waveform -> log-mel spectrogram -> 16x16
patches, plus the stateless token pooling and patch encoding that
``AudioTextLm._audio_rows`` chains, in that order, with its own audio
tensors.

Every function is deterministic in its inputs, so it is safe to call
concurrently. Nothing here holds or mutates model parameters: the encoder
weights come in as plain numpy arrays.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .files import atomic_write, naming

SAMPLE_RATE_HZ = 16000
MEL_FMIN_HZ = 0.0
MEL_FMAX_HZ = 8000.0
PATCH_SIDE = 16
TOKEN_RATE_HZ = 3.2
# frames per batched rfft and mel product in compute_fbank; bounds its
# two block buffers to about 1 MB whatever the clip length
FBANK_BLOCK_FRAMES = 128
# runs of consecutive mel rows in compute_fbank's banded mel product; at 8,
# a 128 x 257 bank keeps 4,304 of its 32,896 weights, 8,608 multiply-adds
# per frame over the re and im lanes
FBANK_MEL_BANDS = 8


@dataclass
class Waveform:
    """Mono audio at exactly 16 kHz, amplitudes in [-1, 1]."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("waveform must be one-dimensional mono audio")
        if self.samples.size == 0:
            raise ValueError("empty waveform")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")


class FbankConfig:
    """The fixed fbank settings: 128 mel bins from 25 ms windows every
    10 ms, padded or cut to 1024 frames."""

    n_mels = 128
    window_samples = 25 * SAMPLE_RATE_HZ // 1000
    hop_samples = 10 * SAMPLE_RATE_HZ // 1000
    target_frames = 1024
    log_floor = 1e-10
    # smallest power of two >= the 400-sample window
    n_fft = 512
    # the (time, frequency) patches patchify tiles every clip's frames into
    patch_grid = (target_frames // PATCH_SIDE, n_mels // PATCH_SIDE)


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

    def __post_init__(self) -> None:
        self.patches = np.asarray(self.patches, dtype=np.float64)
        if self.patches.ndim != 3:
            raise ValueError("patch grid must be 3-D: time x freq x values")
        if self.patches.shape[2] != PATCH_SIDE * PATCH_SIDE:
            raise ValueError(f"patch value count must be {PATCH_SIDE * PATCH_SIDE}")


def hz_to_mel(hz: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@functools.cache
def mel_filterbank() -> np.ndarray:
    """Triangular mel filters as an (n_mels, n_fft//2 + 1) matrix.

    Filter centers are spaced evenly on the HTK mel scale between
    MEL_FMIN_HZ and MEL_FMAX_HZ; each filter ramps linearly in Hz from its
    left neighbor's center to its own and back down to its right neighbor's.
    Built once and shared, so the array is read-only.
    """
    n_mels, n_fft = FbankConfig.n_mels, FbankConfig.n_fft
    mel_points = np.linspace(hz_to_mel(MEL_FMIN_HZ), hz_to_mel(MEL_FMAX_HZ), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(n_fft // 2 + 1) * SAMPLE_RATE_HZ / n_fft

    left, center, right = (hz_points[k:k + n_mels, None] for k in range(3))
    up = (bin_freqs - left) / (center - left)
    down = (right - bin_freqs) / (right - center)
    bank = np.maximum(0.0, np.minimum(up, down))
    bank.setflags(write=False)
    return bank


@functools.cache
def mel_bands() -> tuple[tuple[int, int, int, int, np.ndarray], ...]:
    """mel_filterbank cut into FBANK_MEL_BANDS runs of consecutive mel rows,
    with weights laid out for an interleaved (re, im) spectrum.

    Each band is (m0, m1, b0, b1, weights): mel rows m0..m1-1, the FFT bins
    b0..b1-1 that hold every nonzero weight of those rows, and weights, the
    (2 * bins x mels) slice bank[m0:m1, b0:b1].T with each bin's row given
    twice, once for the real and once for the imaginary part. So
    weights[0::2] and weights[1::2] are both that slice. Outside its bins a
    band's rows are zero, so the bands tile the bank. Built once from
    mel_filterbank and shared, so the weights are read-only.
    """
    bank = mel_filterbank()
    n_mels = FbankConfig.n_mels
    edges = [n_mels * k // FBANK_MEL_BANDS for k in range(FBANK_MEL_BANDS + 1)]
    bands = []
    for m0, m1 in zip(edges, edges[1:]):
        bins = np.flatnonzero(bank[m0:m1].any(axis=0))
        b0, b1 = (int(bins[0]), int(bins[-1]) + 1) if bins.size else (0, 0)
        weights = np.repeat(bank[m0:m1, b0:b1].T, 2, axis=0)
        weights.setflags(write=False)
        bands.append((m0, m1, b0, b1, weights))
    return tuple(bands)


def compute_fbank(w: Waveform) -> LogMelSpectrogram:
    """Log mel filterbank features: 25 ms Hanning window every 10 ms.

    Windowed frames are zero-padded right to n_fft, power spectra are pushed
    through the mel filterbank, and energies are clamped at
    FbankConfig.log_floor before the natural log. Output is padded with
    log(log_floor) rows, or truncated, to exactly FbankConfig.target_frames
    rows.

    Frames are strided views of the samples and go through the FFT and the
    mel product FBANK_BLOCK_FRAMES at a time. Each block is windowed into
    one zero-padded (frames x n_fft) buffer and takes one rfft into one
    complex buffer, which matches a per-frame rfft bit for bit. The buffer's
    float64 view, re and im side by side, is squared in place, and the mel
    product is banded: each of mel_bands' runs of mel rows multiplies only
    the FFT bins its filters reach, one (frames x 2 * bins) @ (2 * bins x
    mels) product per band whose weights give each bin twice, so the
    product sums re**2 + im**2 itself and no magnitude is taken. Those
    sums round differently from abs()**2 (by about an ulp) and from a
    per-frame mel matrix-vector product, so the result is not bit-identical
    to a frame-by-frame loop but stays within 1e-12 of it. It is
    deterministic for a fixed BLAS thread count.
    """
    cfg = FbankConfig
    win = cfg.window_samples
    hop = cfg.hop_samples
    x = w.samples
    if x.size < win:
        raise ValueError(f"waveform shorter than one window ({win} samples)")

    window = np.hanning(win)
    bands = mel_bands()
    segs = np.lib.stride_tricks.sliding_window_view(x, win)[::hop]

    n_keep = min(segs.shape[0], cfg.target_frames)
    frames = np.empty((cfg.target_frames, cfg.n_mels), dtype=np.float64)
    frames[n_keep:] = np.log(cfg.log_floor)
    block_rows = min(FBANK_BLOCK_FRAMES, n_keep)
    # columns win.. stay zero: the FFT's right padding
    padded = np.zeros((block_rows, cfg.n_fft))
    spectrum = np.empty((block_rows, cfg.n_fft // 2 + 1), dtype=np.complex128)
    for lo in range(0, n_keep, FBANK_BLOCK_FRAMES):
        hi = min(lo + FBANK_BLOCK_FRAMES, n_keep)
        block = padded[:hi - lo]
        np.multiply(segs[lo:hi], window, out=block[:, :win])
        # re, im side by side: columns 2b and 2b + 1 hold bin b
        lanes = np.fft.rfft(block, axis=1, out=spectrum[:hi - lo]).view(np.float64)
        np.multiply(lanes, lanes, out=lanes)
        for m0, m1, b0, b1, weights in bands:
            np.matmul(lanes[:, 2 * b0:2 * b1], weights, out=frames[lo:hi, m0:m1])
        energies = frames[lo:hi]
        np.log(np.maximum(energies, cfg.log_floor, out=energies), out=energies)
    return LogMelSpectrogram(frames)


def patchify(s: LogMelSpectrogram) -> PatchGrid:
    """Tile the spectrogram into non-overlapping square patches.

    A 1024x128 input becomes a 64 (time) x 8 (frequency) grid of flattened
    16x16 tiles. The tiling is lossless: reassemble_patches inverts it.
    """
    frames = s.frames
    side = PATCH_SIDE
    t_dim, f_dim = frames.shape
    if t_dim % side or f_dim % side:
        raise ValueError(
            f"spectrogram shape {frames.shape} not divisible by patch side {side}"
        )
    t_patches = t_dim // side
    f_patches = f_dim // side
    tiled = frames.reshape(t_patches, side, f_patches, side)
    grid = tiled.transpose(0, 2, 1, 3).reshape(t_patches, f_patches, side * side)
    return PatchGrid(grid.copy())


def reassemble_patches(g: PatchGrid) -> LogMelSpectrogram:
    """Inverse of patchify; exact, not approximate."""
    t_patches, f_patches, _ = g.patches.shape
    side = PATCH_SIDE
    tiled = g.patches.reshape(t_patches, f_patches, side, side)
    frames = tiled.transpose(0, 2, 1, 3).reshape(t_patches * side, f_patches * side)
    return LogMelSpectrogram(frames.copy())


def check_encoder_shapes(grid_shape: tuple[int, ...], weight: np.ndarray,
                         pos: np.ndarray) -> tuple[int, int, int]:
    """The (time_patches, freq_patches, d_audio) embedding grid that
    encode_patches makes from a patch grid of grid_shape; ValueError if
    weight or pos does not fit it."""
    if grid_shape[2] != weight.shape[0]:
        raise ValueError(
            f"patch value count {grid_shape[2]} does not match encoder "
            f"input dim {weight.shape[0]}"
        )
    emb_shape = (grid_shape[0], grid_shape[1], weight.shape[1])
    if pos.shape != emb_shape:
        raise ValueError(
            f"positional offsets shape {pos.shape} does not "
            f"match embedding grid {emb_shape}"
        )
    return emb_shape


def encode_patches(g: PatchGrid, weight: np.ndarray, bias: np.ndarray,
                   pos: np.ndarray) -> np.ndarray:
    """One embedding per patch, (time_patches, freq_patches, d_audio): a
    linear layer over the flattened patches (weight is patch_values x
    d_audio) plus a learned offset per grid cell (pos)."""
    check_encoder_shapes(g.patches.shape, weight, pos)
    return g.patches @ weight + bias + pos


def pool_tokens(e: np.ndarray) -> np.ndarray:
    """Frequency mean pooling plus 2x temporal downsampling.

    token[t] is the mean of the 2*n_freq embeddings in grid rows 2t and 2t+1,
    so a 64x8 grid (a 10 s clip) yields exactly 32 tokens, TOKEN_RATE_HZ
    tokens per second. Returns the (time // 2, dim) token matrix.
    """
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 3:
        raise ValueError("embedding grid must be 3-D: time x freq x dim")
    t_dim = e.shape[0]
    if t_dim % 2:
        raise ValueError(f"time dimension {t_dim} must be even for 2x downsampling")
    return e.reshape(t_dim // 2, 2 * e.shape[1], e.shape[2]).mean(axis=1)


# -- WAV persistence -------------------------------------------------------

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
        if chunk_id in (b"fmt ", b"data") and len(body) < chunk_len:
            raise ValueError(f"{path}: {chunk_id.decode().strip()} chunk declares "
                             f"{chunk_len} bytes, file has {len(body)}")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + chunk_len + (chunk_len & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise ValueError(f"{path}: fmt chunk of {len(fmt)} bytes, need 16")
    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format != 1 or bits != 16:
        raise ValueError(f"{path}: only 16-bit PCM is supported")
    if channels != 1:
        raise ValueError(f"{path}: only mono audio is supported, got {channels} channels")
    if rate != SAMPLE_RATE_HZ:
        raise ValueError(f"{path}: sample rate must be {SAMPLE_RATE_HZ}, got {rate}")
    if len(data) % 2:
        raise ValueError(f"{path}: odd data length {len(data)} for 16-bit samples")
    ints = np.frombuffer(data, dtype="<i2")
    return Waveform(np.multiply(ints, 2.0 ** -15, dtype=np.float64))


def read_grid(path: str | Path) -> PatchGrid:
    """WAV file -> compute_fbank -> patchify: the one way a clip on disk
    becomes model input. A ValueError names the file unless its message
    already starts with it."""
    with naming(path):
        return patchify(compute_fbank(read_wav(path)))


def write_wav(path: str | Path, w: Waveform) -> None:
    """Write a Waveform as mono 16-bit PCM RIFF, little-endian throughout,
    atomically; a missing parent directory is created."""
    scaled = np.round(np.clip(w.samples, -1.0, 1.0) * 32768.0)
    ints = np.clip(scaled, -32768, 32767).astype("<i2")
    data = ints.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, SAMPLE_RATE_HZ, SAMPLE_RATE_HZ * 2, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(data)) + data
    blob = b"RIFF" + struct.pack("<I", len(body)) + body
    atomic_write(path, blob)

