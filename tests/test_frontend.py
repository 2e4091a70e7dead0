"""Frontend contract tests: WAV IO, fbank, patch tiling, and the audio-path
pieces the model chains (patch encoding, token pooling, projection).

The sine test verifies compute_fbank against a brute-force DFT plus an
independently constructed mel filterbank so the check is not circular. The
block-wise fbank is also checked against the per-frame loop it replaced,
kept here as a reference. The projection runs only inside the model, so its
tests go through AudioTextLm._audio_rows: pooling, patch encoding, then
projection, with the model's audio tensors.
"""

from __future__ import annotations

import functools
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aqakit.frontend import (
    MEL_FMAX_HZ,
    MEL_FMIN_HZ,
    FBANK_BLOCK_FRAMES,
    FBANK_MEL_BANDS,
    FbankConfig,
    LogMelSpectrogram,
    PATCH_SIDE,
    PatchGrid,
    Waveform,
    check_encoder_shapes,
    compute_fbank,
    encode_patches,
    hz_to_mel,
    mel_bands,
    mel_filterbank,
    mel_to_hz,
    patchify,
    pool_tokens,
    read_grid,
    read_wav,
    reassemble_patches,
    write_wav,
)
from aqakit.model import AudioTextLm, DecoderConfig

SR = 16000


def ten_seconds(value: float = 0.0) -> Waveform:
    return Waveform(np.full(SR * 10, value))


def test_fbank_shape_ten_seconds() -> None:
    spec = compute_fbank(ten_seconds())
    assert spec.frames.shape == (1024, 128)


def test_fbank_silence_hits_floor_everywhere() -> None:
    cfg = FbankConfig()
    spec = compute_fbank(ten_seconds(0.0))
    assert np.all(spec.frames == math.log(cfg.log_floor))
    # one window, one frame past the first block, and past the 1024-frame cut
    for n in (cfg.window_samples, samples_for_frames(FBANK_BLOCK_FRAMES + 1), SR * 12):
        assert np.all(compute_fbank(Waveform(np.zeros(n))).frames == math.log(cfg.log_floor))


def test_fbank_rejects_wrong_rate_and_empty() -> None:
    with pytest.raises(ValueError):
        Waveform(np.array([]))
    with pytest.raises(ValueError):
        compute_fbank(Waveform(np.zeros(100)))  # shorter than one window


def test_fbank_deterministic_bit_identical() -> None:
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, SR * 2)
    a = compute_fbank(Waveform(x.copy())).frames
    b = compute_fbank(Waveform(x.copy())).frames
    assert np.array_equal(a, b)


def test_fbank_padding_and_truncation() -> None:
    cfg = FbankConfig()
    floor = math.log(cfg.log_floor)
    short = compute_fbank(Waveform(np.random.default_rng(0).uniform(-1, 1, SR)))
    n_real = (SR - cfg.window_samples) // cfg.hop_samples + 1
    assert np.all(short.frames[n_real:] == floor)
    assert not np.all(short.frames[:n_real] == floor)

    long_wave = Waveform(np.random.default_rng(1).uniform(-1, 1, SR * 12))
    eleven = compute_fbank(long_wave)
    assert eleven.frames.shape == (1024, 128)
    # truncation keeps the first 1024 frames: recompute on a prefix long
    # enough to cover them and compare
    prefix_len = cfg.window_samples + cfg.hop_samples * 1023
    prefix = compute_fbank(Waveform(long_wave.samples[:prefix_len]))
    assert np.array_equal(eleven.frames, prefix.frames)


def oracle_mel_bank(cfg: FbankConfig) -> np.ndarray:
    """Triangular mel filters built entry by entry with math, not numpy."""

    def to_mel(hz: float) -> float:
        return 2595.0 * math.log10(1.0 + hz / 700.0)

    def to_hz(mel: float) -> float:
        return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)

    edges = [to_hz(m) for m in np.linspace(to_mel(0.0), to_mel(8000.0), cfg.n_mels + 2)]
    bin_freqs = np.arange(cfg.n_fft // 2 + 1) * SR / cfg.n_fft
    bank = np.zeros((cfg.n_mels, bin_freqs.size))
    for m in range(cfg.n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        for k, f in enumerate(bin_freqs):
            bank[m, k] = max(0.0, min((f - lo) / (mid - lo), (hi - f) / (hi - mid)))
    return bank


def brute_force_frame_oracle(x: np.ndarray, frame_index: int, cfg: FbankConfig) -> np.ndarray:
    """Direct-sum DFT + independently built mel bank for one frame."""
    win = cfg.window_samples
    seg = x[frame_index * cfg.hop_samples: frame_index * cfg.hop_samples + win]
    hann = np.array([0.5 - 0.5 * math.cos(2 * math.pi * n / (win - 1)) for n in range(win)])
    seg = np.concatenate([seg * hann, np.zeros(cfg.n_fft - win)])
    n = np.arange(cfg.n_fft)
    power = np.empty(cfg.n_fft // 2 + 1)
    for k in range(cfg.n_fft // 2 + 1):
        re = float(np.sum(seg * np.cos(-2 * math.pi * k * n / cfg.n_fft)))
        im = float(np.sum(seg * np.sin(-2 * math.pi * k * n / cfg.n_fft)))
        power[k] = re * re + im * im
    mel_energy = np.zeros(cfg.n_mels)
    for m, weights in enumerate(oracle_mel_bank(cfg)):
        for k, w in enumerate(weights):
            if w > 0:
                mel_energy[m] += w * power[k]
    return np.log(np.maximum(mel_energy, cfg.log_floor))


def per_frame_fbank(x: np.ndarray) -> np.ndarray:
    """Reference: the frame-by-frame loop, one rfft and one mel
    matrix-vector product per frame."""
    cfg = FbankConfig()
    win, hop = cfg.window_samples, cfg.hop_samples
    n_frames = (x.size - win) // hop + 1
    window = np.hanning(win)
    bank = mel_filterbank()
    frames = np.full((cfg.target_frames, cfg.n_mels), np.log(cfg.log_floor))
    for i in range(min(n_frames, cfg.target_frames)):
        power = np.abs(np.fft.rfft(x[i * hop:i * hop + win] * window, n=cfg.n_fft)) ** 2
        frames[i] = np.log(np.maximum(bank @ power, cfg.log_floor))
    return frames


def samples_for_frames(n_frames: int) -> int:
    cfg = FbankConfig()
    return cfg.window_samples + cfg.hop_samples * (n_frames - 1)


def random_level_noise(n_samples: int) -> np.ndarray:
    rng = np.random.default_rng(n_samples)
    return rng.uniform(-1, 1, n_samples) * 10.0 ** rng.uniform(-4, 0)


def full_scale_clipped() -> np.ndarray:
    """A 20 Hz sine driven 10x past full scale and clipped to [-1, 1]: whole
    windows sit at +-1, so the low bins carry the largest re**2 + im**2."""
    t = np.arange(samples_for_frames(FBANK_BLOCK_FRAMES + 1)) / SR
    return np.clip(10.0 * np.sin(2 * np.pi * 20.0 * t), -1.0, 1.0)


def below_log_floor() -> np.ndarray:
    """Noise at 1e-6 of full scale: about two thirds of the mel energies
    fall below log_floor, so the clamp runs after the folded sum."""
    rng = np.random.default_rng(5)
    return rng.uniform(-1, 1, samples_for_frames(FBANK_BLOCK_FRAMES + 1)) * 1e-6


@pytest.mark.parametrize("make_signal", [
    *(pytest.param(functools.partial(random_level_noise, n), id=str(n))
      for n in (400, 401,
                *(samples_for_frames(frames) for frames in (
                    FBANK_BLOCK_FRAMES - 1, FBANK_BLOCK_FRAMES, FBANK_BLOCK_FRAMES + 1,
                    2 * FBANK_BLOCK_FRAMES, 1023, 1024, 1100)))),
    pytest.param(full_scale_clipped, id="full_scale_clipped"),
    pytest.param(below_log_floor, id="below_log_floor"),
])
def test_fbank_matches_per_frame_loop(make_signal) -> None:
    x = make_signal()
    got = compute_fbank(Waveform(x)).frames
    want = per_frame_fbank(x)
    assert got.shape == want.shape == (1024, 128)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_fbank_edge_signals_reach_their_edges() -> None:
    cfg = FbankConfig()
    window = np.hanning(cfg.window_samples)
    x = full_scale_clipped()
    segs = np.lib.stride_tricks.sliding_window_view(x, cfg.window_samples)
    power = np.abs(np.fft.rfft(segs[::cfg.hop_samples] * window, n=cfg.n_fft)) ** 2
    # within 1% of a constant full-scale window's DC power, the largest any
    # clip in [-1, 1] can reach
    assert power.max() > 0.99 * window.sum() ** 2
    n_real = FBANK_BLOCK_FRAMES + 1
    clamped = per_frame_fbank(below_log_floor())[:n_real] == np.log(cfg.log_floor)
    assert 0.3 < clamped.mean() < 0.9


def test_mel_filterbank_is_built_once_and_read_only() -> None:
    cfg = FbankConfig()
    bank = mel_filterbank()
    assert mel_filterbank() is bank
    with pytest.raises(ValueError):
        bank[0, 0] = 1.0
    np.testing.assert_allclose(bank, oracle_mel_bank(cfg), rtol=0, atol=1e-12)
    # one filter per row from the same edges: the broadcast build gives
    # the same bits
    hz_points = mel_to_hz(np.linspace(hz_to_mel(MEL_FMIN_HZ), hz_to_mel(MEL_FMAX_HZ),
                                      cfg.n_mels + 2))
    bin_freqs = np.arange(cfg.n_fft // 2 + 1) * SR / cfg.n_fft
    rows = np.zeros_like(bank)
    for m in range(cfg.n_mels):
        left, center, right = hz_points[m:m + 3]
        up = (bin_freqs - left) / (center - left)
        down = (right - bin_freqs) / (right - center)
        rows[m] = np.maximum(0.0, np.minimum(up, down))
    assert np.array_equal(bank, rows)


def test_mel_bands_tile_the_bank() -> None:
    cfg = FbankConfig()
    bank = mel_filterbank()
    bands = mel_bands()
    assert mel_bands() is bands
    assert len(bands) == FBANK_MEL_BANDS
    rebuilt = np.zeros_like(bank)
    next_row = 0
    for m0, m1, b0, b1, weights in bands:
        assert m0 == next_row < m1
        next_row = m1
        # one row per bin for its re lane, then one for its im lane
        assert weights.shape == (2 * (b1 - b0), m1 - m0)
        assert np.array_equal(weights[0::2], weights[1::2])
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0
        # the bin range covers every nonzero of the band's rows
        assert not bank[m0:m1, :b0].any() and not bank[m0:m1, b1:].any()
        rebuilt[m0:m1, b0:b1] = weights[0::2].T
    assert next_row == cfg.n_mels
    assert np.array_equal(rebuilt, bank)
    # the banded product's multiply-adds per frame, 2 x 4,304 over the re
    # and im lanes, against 128 x 257 dense
    assert sum(w.size for *_, w in bands) == 2 * 4304 == 8608


def test_fbank_sine_matches_dft_oracle() -> None:
    cfg = FbankConfig()
    t = np.arange(SR * 2) / SR
    x = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
    spec = compute_fbank(Waveform(x))

    mel_points = np.linspace(hz_to_mel(MEL_FMIN_HZ), hz_to_mel(MEL_FMAX_HZ),
                             cfg.n_mels + 2)
    centers = mel_to_hz(mel_points[1:-1])
    expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
    n_real = (x.size - cfg.window_samples) // cfg.hop_samples + 1
    argmaxes = np.argmax(spec.frames[:n_real], axis=1)
    assert np.all(argmaxes == expected_bin)

    oracle = brute_force_frame_oracle(x, 37, cfg)
    np.testing.assert_allclose(spec.frames[37], oracle, rtol=1e-9, atol=1e-9)


def test_patchify_grid_shape_and_constant() -> None:
    grid = patchify(LogMelSpectrogram(np.zeros((1024, 128)) + 3.25))
    assert grid.patches.shape == (64, 8, 256)
    assert np.all(grid.patches == 3.25)


def test_patchify_rejects_indivisible() -> None:
    with pytest.raises(ValueError):
        patchify(LogMelSpectrogram(np.zeros((1000, 128))))


def test_patchify_roundtrip_bit_exact() -> None:
    rng = np.random.default_rng(11)
    for _ in range(5):
        frames = rng.normal(size=(1024, 128))
        back = reassemble_patches(patchify(LogMelSpectrogram(frames)))
        assert np.array_equal(back.frames, frames)


@pytest.mark.parametrize("shape", [(1024, 128), (32, 16), (16, 32)])
def test_patchify_grid_shares_no_memory_with_the_spectrogram(shape) -> None:
    frames = np.random.default_rng(12).normal(size=shape)
    grid = patchify(LogMelSpectrogram(frames)).patches
    assert grid.flags.c_contiguous and not np.shares_memory(grid, frames)
    frames[:] = 0.0
    assert np.array_equal(reassemble_patches(PatchGrid(grid)).frames,
                          np.random.default_rng(12).normal(size=shape))


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.float64, (shape[0] * PATCH_SIDE, shape[1] * PATCH_SIDE),
                         elements=finite)))
def test_patchify_reassemble_exact_on_any_spectrogram(frames) -> None:
    back = reassemble_patches(patchify(LogMelSpectrogram(frames)))
    assert np.array_equal(back.frames, frames)


@given(st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.float64, (*shape, PATCH_SIDE * PATCH_SIDE),
                         elements=finite)))
def test_reassemble_patchify_exact_on_any_grid(patches) -> None:
    back = patchify(reassemble_patches(PatchGrid(patches)))
    assert np.array_equal(back.patches, patches)


def test_patchify_tiles_are_contiguous_blocks() -> None:
    frames = np.arange(1024 * 128, dtype=np.float64).reshape(1024, 128)
    grid = patchify(LogMelSpectrogram(frames))
    tile = grid.patches[3, 2].reshape(16, 16)
    assert np.array_equal(tile, frames[3 * 16:4 * 16, 2 * 16:3 * 16])


def test_encode_shapes_and_identity_weight() -> None:
    grid = PatchGrid(np.full((64, 8, 256), 2.0))
    rng = np.random.default_rng(0)
    emb = encode_patches(grid, rng.normal(0.0, 0.02, size=(256, 16)),
                         np.zeros(16), rng.normal(0.0, 0.02, size=(64, 8, 16)))
    assert emb.shape == (64, 8, 16)

    emb = encode_patches(grid, np.eye(256)[:, :16], np.zeros(16),
                         np.zeros((64, 8, 16)))
    assert np.all(emb == 2.0)


def test_encode_identical_patches_identical_embeddings() -> None:
    rng = np.random.default_rng(3)
    patches = rng.normal(size=(64, 8, 256))
    patches[10, 3] = patches[50, 7]
    weight = np.random.default_rng(1).normal(0.0, 0.02, size=(256, 32))
    emb = encode_patches(PatchGrid(patches), weight, np.zeros(32),
                         np.zeros((64, 8, 32)))
    assert np.array_equal(emb[10, 3], emb[50, 7])


def test_encode_rejects_dim_mismatch() -> None:
    with pytest.raises(ValueError):
        encode_patches(PatchGrid(np.zeros((64, 8, 256))), np.zeros((64, 8)),
                       np.zeros(8), np.zeros((64, 8, 8)))


def test_pool_token_count_and_constant() -> None:
    tokens = pool_tokens(np.full((64, 8, 5), 1.5))
    assert tokens.shape == (32, 5)
    assert np.all(tokens == 1.5)


def test_pool_hand_mean_oracle() -> None:
    # cell (t, f) holds scalar t; token k must be (2k + (2k+1)) / 2
    grid = np.repeat(np.arange(64.0)[:, None, None], 8, axis=1)
    tokens = pool_tokens(grid)
    expected = 2 * np.arange(32.0) + 0.5
    np.testing.assert_array_equal(tokens[:, 0], expected)


def test_pool_rejects_odd_time() -> None:
    with pytest.raises(ValueError):
        pool_tokens(np.zeros((63, 8, 4)))


def test_pool_commutes_with_scaling() -> None:
    rng = np.random.default_rng(5)
    for _ in range(20):
        e = rng.normal(size=(64, 8, 7))
        c = float(rng.normal())
        np.testing.assert_allclose(pool_tokens(c * e), c * pool_tokens(e),
                                   rtol=1e-12, atol=1e-12)


def audio_model(d_audio: int, d_model: int) -> AudioTextLm:
    """A model for its audio path only: no decoder layers."""
    return AudioTextLm(DecoderConfig(n_layers=0, n_heads=1, d_model=d_model,
                                     d_audio=d_audio))


def test_project_llama_geometry_shape() -> None:
    model = audio_model(768, 4096)
    rows, _ = model._audio_rows(PatchGrid(np.zeros((64, 8, 256))))
    assert rows.shape == (32, 4096)


def test_project_zero_weights() -> None:
    model = audio_model(4, 6)
    model.audio["audio.proj.weight"] = np.zeros((4, 6))
    model.audio["audio.proj.bias"] = np.zeros(6)
    rows, _ = model._audio_rows(PatchGrid(np.ones((64, 8, 256))))
    assert np.all(rows == 0.0)


def test_project_hand_affine_oracle() -> None:
    # identity encoder, zero offsets: patch value 0 holds the grid row t and
    # value 1 the column f, so token k pools to [2k + 0.5, 3.5]
    model = audio_model(2, 3)
    model.audio.update({
        "audio.enc.weight": np.eye(256)[:, :2], "audio.enc.bias": np.zeros(2),
        "audio.enc.pos": np.zeros((64, 8, 2)),
        "audio.proj.weight": np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        "audio.proj.bias": np.array([0.5, -0.5, 1.0])})
    patches = np.zeros((64, 8, 256))
    patches[..., 0] = np.arange(64.0)[:, None]
    patches[..., 1] = np.arange(8.0)[None, :]
    rows, _ = model._audio_rows(PatchGrid(patches))
    # [2k + 0.5, 3.5] @ proj.weight + proj.bias: token 0 is [15, 18, 23.5]
    # and each later token adds 2 * [1, 2, 3]
    k = np.arange(32.0)[:, None]
    np.testing.assert_array_equal(rows, np.array([[15.0, 18.0, 23.5]]) + 2 * k * [1, 2, 3])


def test_project_rejects_mismatch() -> None:
    model = audio_model(4, 3)
    model.audio["audio.enc.weight"] = np.zeros((256, 5))
    model.audio["audio.enc.bias"] = np.zeros(5)
    model.audio["audio.enc.pos"] = np.zeros((64, 8, 5))
    with pytest.raises(ValueError, match="d_audio 4"):
        model._audio_rows(PatchGrid(np.zeros((64, 8, 256))))


def test_wav_roundtrip_and_rejections(tmp_path) -> None:
    rng = np.random.default_rng(13)
    w = Waveform(rng.uniform(-1, 1, SR))
    path = tmp_path / "clip.wav"
    write_wav(path, w)
    back = read_wav(path)
    # 16-bit quantization bounds the round-trip error
    assert np.max(np.abs(back.samples - w.samples)) <= 0.5 / 32768 + 1e-12

    bad = bytearray(path.read_bytes())
    bad[24:28] = (44100).to_bytes(4, "little")  # patch the declared rate
    bad_path = tmp_path / "bad_rate.wav"
    bad_path.write_bytes(bytes(bad))
    with pytest.raises(ValueError):
        read_wav(bad_path)

    stereo = bytearray(path.read_bytes())
    stereo[22:24] = (2).to_bytes(2, "little")
    stereo_path = tmp_path / "stereo.wav"
    stereo_path.write_bytes(bytes(stereo))
    with pytest.raises(ValueError):
        read_wav(stereo_path)

    not_wav = tmp_path / "nope.wav"
    not_wav.write_bytes(b"OggS" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_wav(not_wav)


def wav_edited(tmp_path: Path, edit) -> Path:
    """clip.wav in tmp_path: a written 0.1 s clip, its bytes passed through edit."""
    path = tmp_path / "clip.wav"
    write_wav(path, Waveform(np.zeros(SR // 10)))
    path.write_bytes(edit(path.read_bytes()))
    return path


# frontend input check -> (a call given tmp_path that fails it, its message,
# with {wav} for tmp_path / "clip.wav")
FRONTEND_INPUT_CHECKS = {
    "waveform_2d": (lambda tmp: Waveform(np.zeros((2, 400))),
                    "waveform must be one-dimensional mono audio"),
    "waveform_nan": (lambda tmp: Waveform([0.0, math.nan, 0.5]),
                     "waveform contains non-finite samples"),
    "spectrogram_1d": (lambda tmp: LogMelSpectrogram(np.zeros(128)),
                       "spectrogram must be a 2-D matrix"),
    "spectrogram_inf": (lambda tmp: LogMelSpectrogram([[0.0, -math.inf]]),
                        "spectrogram contains non-finite entries"),
    "grid_2d": (lambda tmp: PatchGrid(np.zeros((8, 256))),
                "patch grid must be 3-D: time x freq x values"),
    "grid_255_values": (lambda tmp: PatchGrid(np.zeros((2, 8, 255))),
                        "patch value count must be 256"),
    "offsets_shape": (lambda tmp: check_encoder_shapes((64, 8, 256), np.zeros((256, 4)),
                                                       np.zeros((64, 7, 4))),
                      "positional offsets shape (64, 7, 4) does not match "
                      "embedding grid (64, 8, 4)"),
    "pool_2d": (lambda tmp: pool_tokens(np.zeros((64, 8))),
                "embedding grid must be 3-D: time x freq x dim"),
    # RIFF header and the 16-byte fmt chunk end at byte 36
    "wav_no_data": (lambda tmp: read_wav(wav_edited(tmp, lambda b: b[:36])),
                    "{wav}: missing fmt or data chunk"),
    # format tag 3: IEEE float
    "wav_float": (lambda tmp: read_wav(wav_edited(
                      tmp, lambda b: b[:20] + struct.pack("<H", 3) + b[22:])),
                  "{wav}: only 16-bit PCM is supported"),
}


@pytest.mark.parametrize("case", FRONTEND_INPUT_CHECKS)
def test_frontend_input_checks_name_the_fault(tmp_path, case) -> None:
    call, message = FRONTEND_INPUT_CHECKS[case]
    with pytest.raises(ValueError) as err:
        call(tmp_path)
    assert str(err.value) == message.format(wav=tmp_path / "clip.wav")


@given(st.lists(st.one_of(st.sampled_from([-1.0, 1.0]),
                          st.floats(-1.0, 1.0, allow_nan=False)),
                min_size=1, max_size=300))
def test_wav_roundtrip_within_one_quantization_step(samples) -> None:
    w = Waveform(np.array(samples))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clip.wav"
        write_wav(path, w)
        back = read_wav(path)
    assert back.samples.shape == w.samples.shape
    assert np.max(np.abs(back.samples - w.samples)) <= 1 / 32768


def test_read_wav_scales_every_int16_value_exactly(tmp_path) -> None:
    ints = np.arange(-32768, 32768).astype("<i2")
    path = tmp_path / "all.wav"
    write_wav(path, Waveform(ints / 32768.0))
    back = read_wav(path)
    assert np.array_equal(np.frombuffer(path.read_bytes()[-ints.nbytes:], "<i2"), ints)
    want = ints.astype(np.float64) / 32768.0
    assert back.samples.dtype == np.float64
    assert np.array_equal(back.samples.view(np.uint64), want.view(np.uint64))


def test_an_interrupted_write_wav_keeps_the_old_file(tmp_path, disk_full) -> None:
    path = tmp_path / "clip.wav"
    write_wav(path, Waveform(np.zeros(SR)))
    old = path.read_bytes()
    disk_full()
    with pytest.raises(OSError):
        write_wav(path, Waveform(np.full(SR, 0.5)))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["clip.wav"]


def test_read_wav_rejects_a_truncated_data_chunk(tmp_path) -> None:
    path = tmp_path / "clip.wav"
    write_wav(path, Waveform(np.zeros(SR)))
    cut = tmp_path / "cut.wav"
    cut.write_bytes(path.read_bytes()[:16022])
    with pytest.raises(ValueError) as info:
        read_wav(cut)
    assert str(info.value) == f"{cut}: data chunk declares 32000 bytes, file has 15978"


def _riff(fmt: bytes, data: bytes) -> bytes:
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("fmt, data, problem", [
    (struct.pack("<HHI", 1, 1, SR), b"\x00\x00", "fmt chunk"),
    (struct.pack("<HHIIHH", 1, 1, SR, 2 * SR, 2, 16), b"\x00\x01\x02",
     "odd data length"),
], ids=["short_fmt", "odd_data"])
def test_read_wav_names_the_file_on_malformed_chunks(tmp_path, fmt, data,
                                                     problem) -> None:
    path = tmp_path / "broken.wav"
    path.write_bytes(_riff(fmt, data))
    with pytest.raises(ValueError, match=problem) as info:
        read_wav(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("blob, problem", [
    (_riff(struct.pack("<HHIIHH", 1, 1, SR, 2 * SR, 2, 16), bytes(200)),
     "waveform shorter than one window (400 samples)"),
    (_riff(struct.pack("<HHIIHH", 1, 1, SR, 2 * SR, 2, 16), b""),
     "empty waveform"),
    (b"not audio", "not a RIFF/WAVE file"),
], ids=["short", "empty", "not_riff"])
def test_read_grid_names_the_file_once(tmp_path, blob, problem) -> None:
    path = tmp_path / "clip.wav"
    path.write_bytes(blob)
    with pytest.raises(ValueError) as info:
        read_grid(path)
    assert str(info.value) == f"{path}: {problem}"
