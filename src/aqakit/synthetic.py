"""A tiny self-contained training corpus: eight "animal" sound classes,
each a pure tone with a little noise, labeled with single-event metas.

The point is trainability at desk scale, so everything is deliberately
easy: answers are three-letter class names, one event per clip, and each
class has its own tone frequency, feature string, and caption. Running
the closed-ended generators over one clip yields exactly five QA pairs
(classification, acoustic feature, caption, and two temporal questions),
so 8 classes x 5 clips x 5 pairs gives the standard 200-pair corpus.

write_demo_corpus puts it on disk as 16-bit WAVs, a meta JSONL and a QA
manifest; read_corpus reads a manifest and its clips back as trainer-ready
items, the one way from files to training input.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .forge import (AudioMeta, QAPair, SoundEvent, gen_closed_manifest,
                    read_manifest, write_manifest, write_meta_jsonl)
from .frontend import (PatchGrid, SAMPLE_RATE_HZ, Waveform, read_grid,
                       write_wav)
from .training.trainer import CorpusItem

# a second binding of compute_fbank, swapped by bench/tests/test_tracing.py
from .frontend import compute_fbank  # noqa: F401


@dataclass(frozen=True)
class DemoClass:
    label: str
    tone_hz: float
    feature: str
    caption: str


DEMO_CLASSES = (
    DemoClass("dog", 300.0, "low hum", "a dog barks twice"),
    DemoClass("cat", 500.0, "soft purr", "a cat purrs gently"),
    DemoClass("owl", 800.0, "deep hoot", "an owl hoots at night"),
    DemoClass("bee", 1200.0, "thin buzz", "a bee buzzes past"),
    DemoClass("fox", 1800.0, "sharp yip", "a fox yips in the dark"),
    DemoClass("jay", 2600.0, "clear chirp", "a jay chirps loudly"),
    DemoClass("ant", 3600.0, "faint tick", "an ant nest crackles"),
    DemoClass("ram", 5000.0, "gruff bleat", "a ram bleats once"),
)

CLIP_SECONDS = 2.0


def make_demo_wave(tone_hz: float, seed: int,
                   duration_s: float = CLIP_SECONDS) -> Waveform:
    n = int(round(duration_s * SAMPLE_RATE_HZ))
    rng = np.random.default_rng(seed)
    t = np.arange(n) / SAMPLE_RATE_HZ
    phase = rng.uniform(0.0, 2.0 * np.pi)
    samples = 0.6 * np.sin(2.0 * np.pi * tone_hz * t + phase)
    samples += 0.02 * rng.standard_normal(n)
    return Waveform(np.clip(samples, -1.0, 1.0))


def corpus_items(pairs: list[QAPair],
                 grids: dict[str, PatchGrid]) -> list[CorpusItem]:
    return [CorpusItem(pair=p, audio=grids[p.audio_id]) for p in pairs]


def read_corpus(manifest: str | Path, audio_dir: str | Path,
                ) -> list[CorpusItem]:
    """Trainer-ready items from a QA manifest and a directory of
    <audio_id>.wav clips, in manifest order; each clip is read once,
    through read_grid, in sorted audio_id order."""
    pairs = read_manifest(manifest)
    audio_dir = Path(audio_dir)
    grids = {audio_id: read_grid(audio_dir / f"{audio_id}.wav")
             for audio_id in sorted({p.audio_id for p in pairs})}
    return corpus_items(pairs, grids)


def write_demo_corpus(out_dir: str | Path, clips_per_class: int = 5,
                      seed: int = 0) -> dict[str, int]:
    """Materialize the corpus on disk: WAV files, meta JSONL, QA manifest.
    Returns counts for reporting."""
    out = Path(out_dir)
    metas = []
    for c, cls in enumerate(DEMO_CLASSES):
        for k in range(clips_per_class):
            meta = AudioMeta(
                audio_id=f"{cls.label}{k:02d}",
                events=[SoundEvent(cls.label, cls.feature, 0.0, CLIP_SECONDS)],
                caption=cls.caption)
            metas.append(meta)
            write_wav(out / "audio" / f"{meta.audio_id}.wav", make_demo_wave(
                cls.tone_hz, seed=seed * 100_003 + c * 101 + k))
    pairs = gen_closed_manifest(metas, seed)
    write_meta_jsonl(out / "meta.jsonl", metas)
    write_manifest(out / "manifest.jsonl", pairs)
    return {"clips": len(metas), "pairs": len(pairs)}
