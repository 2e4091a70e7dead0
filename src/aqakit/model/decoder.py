"""Toy autoregressive decoder with a frozen base and LoRA adapters on the
key/query projections, conditioned on 32 audio tokens. The audio input is
always a clip's PatchGrid: the patch encoder, token pooling and projection
run inside forward, so gradients reach every audio parameter.

Everything runs in float64 with a hand-written backward pass so gradients
can be audited against central finite differences. The frozen base (token
and position embeddings, attention, MLP, layer norms, output head) is never
touched by training; the trainable set is exactly the LoRA A/B matrices,
the audio projection, and the patch encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frontend import (
    PatchEncoder,
    PatchGrid,
    ProjectionLayer,
    encode_patches,
    pool_tokens,
)
from .lora import lora_apply_rows
from .tokenizer import VOCAB_SIZE

LN_EPS = 1e-5
# frozen base weight of each projection an adapter may attach to
_LORA_WEIGHTS = {"query": "attn.wq", "key": "attn.wk"}


@dataclass
class DecoderConfig:
    n_layers: int = 4
    n_heads: int = 4
    d_model: int = 64
    vocab_size: int = VOCAB_SIZE
    max_seq_len: int = 192
    lora_targets: tuple[str, ...] = ("query", "key")
    lora_rank: int = 8
    lora_alpha: float = 16.0
    d_audio: int = 64
    n_audio_tokens: int = 32
    mlp_ratio: int = 4

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        bad = set(self.lora_targets) - {"query", "key"}
        if bad:
            raise ValueError(f"LoRA attaches only to key/query projections, got {bad}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


def llama_7b_geometry() -> DecoderConfig:
    """7B-class geometry preset, used only for shape and count arithmetic."""
    return DecoderConfig(n_layers=32, n_heads=32, d_model=4096,
                         vocab_size=32000, max_seq_len=2048)


def count_lora_params(geom: DecoderConfig) -> int:
    r = geom.lora_rank
    d = geom.d_model
    return geom.n_layers * len(geom.lora_targets) * (r * d + d * r)


@dataclass
class TrainingExample:
    """One supervised row: audio conditioning plus a masked text sequence.

    audio_tokens is the clip's PatchGrid; the patch encoder, pooling and
    projection all sit inside the differentiable path.
    """

    audio_tokens: PatchGrid
    text_tokens: np.ndarray
    loss_mask: np.ndarray

    def __post_init__(self) -> None:
        self.text_tokens = np.asarray(self.text_tokens, dtype=np.int64)
        self.loss_mask = np.asarray(self.loss_mask, dtype=bool)
        if self.text_tokens.shape != self.loss_mask.shape:
            raise ValueError("loss_mask must align with text_tokens")
        if self.loss_mask[:1].any():
            raise ValueError("the leading token is never supervised")


class AudioTextLm:
    """Frozen decoder + LoRA + trainable audio path, one example at a time."""

    def __init__(self, cfg: DecoderConfig | None = None, seed: int = 0,
                 base_scale: float = 0.1, out_scale: float = 0.125,
                 lora_a_scale: float = 0.01, audio_init_scale: float = 0.02):
        self.cfg = cfg or DecoderConfig()
        c = self.cfg
        rng = np.random.default_rng(seed)
        d, h = c.d_model, c.mlp_ratio * c.d_model

        self.base: dict[str, np.ndarray] = {
            "tok_emb": rng.normal(0.0, 0.02, size=(c.vocab_size, d)),
            "pos_emb": rng.normal(0.0, 0.02, size=(c.max_seq_len, d)),
            "final_ln.gamma": np.ones(d),
            "final_ln.beta": np.zeros(d),
            "out.w": rng.normal(0.0, out_scale, size=(c.vocab_size, d)),
        }
        for i in range(c.n_layers):
            p = f"layers.{i}."
            self.base[p + "ln1.gamma"] = np.ones(d)
            self.base[p + "ln1.beta"] = np.zeros(d)
            self.base[p + "ln2.gamma"] = np.ones(d)
            self.base[p + "ln2.beta"] = np.zeros(d)
            for w in ("wq", "wk", "wv", "wo"):
                self.base[p + f"attn.{w}"] = rng.normal(0.0, base_scale, size=(d, d))
            self.base[p + "mlp.w1"] = rng.normal(0.0, base_scale, size=(h, d))
            self.base[p + "mlp.b1"] = np.zeros(h)
            self.base[p + "mlp.w2"] = rng.normal(0.0, base_scale, size=(d, h))
            self.base[p + "mlp.b2"] = np.zeros(d)

        self.lora: dict[str, np.ndarray] = {}
        for i in range(c.n_layers):
            for t in c.lora_targets:
                self.lora[f"layers.{i}.attn.{t}.lora_A"] = rng.normal(
                    0.0, lora_a_scale, size=(c.lora_rank, d))
                self.lora[f"layers.{i}.attn.{t}.lora_B"] = np.zeros((d, c.lora_rank))

        self.patch_encoder = PatchEncoder.create(
            d_audio=c.d_audio, grid_shape=(2 * c.n_audio_tokens, 8),
            seed=seed + 1, init_scale=audio_init_scale)
        self.projection = ProjectionLayer.create(
            c.d_audio, d, seed=seed + 2, init_scale=audio_init_scale)

    # -- parameter bookkeeping ------------------------------------------

    def trainable_parameters(self) -> dict[str, np.ndarray]:
        params = dict(self.lora)
        params["audio.enc.weight"] = self.patch_encoder.weight
        params["audio.enc.bias"] = self.patch_encoder.bias
        params["audio.enc.pos"] = self.patch_encoder.pos_offsets
        params["audio.proj.weight"] = self.projection.weight
        params["audio.proj.bias"] = self.projection.bias
        return params

    def lora_scale(self) -> float:
        return self.cfg.lora_alpha / self.cfg.lora_rank

    # -- audio path ------------------------------------------------------

    def _audio_rows(self, audio: PatchGrid) -> tuple[np.ndarray, dict]:
        """Encode, pool and project the clip's patches to d_model rows,
        keeping the intermediates needed to push gradients back into the
        encoder."""
        if not isinstance(audio, PatchGrid):
            raise TypeError(f"audio must be a PatchGrid, got {type(audio).__name__}")
        emb = encode_patches(audio, self.patch_encoder)
        tokens = pool_tokens(emb).tokens
        if tokens.shape[0] != self.cfg.n_audio_tokens:
            raise ValueError(
                f"expected {self.cfg.n_audio_tokens} audio tokens, got {tokens.shape[0]}")
        if tokens.shape[1] != self.cfg.d_audio:
            raise ValueError(
                f"audio token width {tokens.shape[1]} != d_audio {self.cfg.d_audio}")
        rows = tokens @ self.projection.weight + self.projection.bias
        return rows, {"patches": audio.patches, "grid_shape": emb.shape,
                      "tokens": tokens}

    # -- forward ---------------------------------------------------------

    def forward(self, audio, text_ids: np.ndarray,
                want_cache: bool = False):
        """Causal forward over [audio rows | text embeddings].

        Returns logits of shape (len(text_ids), vocab): row t is the
        next-token distribution computed at text position t, so it sees
        text tokens 0..t and every audio token.
        """
        c = self.cfg
        text_ids = np.asarray(text_ids, dtype=np.int64)
        na, nt = c.n_audio_tokens, text_ids.size
        total = na + nt
        if total > c.max_seq_len:
            raise ValueError(f"sequence length {total} exceeds max {c.max_seq_len}")
        if nt == 0:
            raise ValueError("at least one text token is required")

        audio_rows, audio_cache = self._audio_rows(audio)
        x = np.empty((total, c.d_model))
        x[:na] = audio_rows
        x[na:] = self.base["tok_emb"][text_ids]
        x = x + self.base["pos_emb"][:total]

        causal = np.triu(np.full((total, total), -np.inf), k=1)
        scale = self.lora_scale()
        layer_caches = []
        for i in range(c.n_layers):
            p = f"layers.{i}."
            x_in = x
            h1, ln1_cache = _ln_forward(x_in, self.base[p + "ln1.gamma"],
                                        self.base[p + "ln1.beta"])
            qk, u = {}, {}
            for target, w in _LORA_WEIGHTS.items():
                if target in c.lora_targets:
                    qk[target], u[target] = lora_apply_rows(
                        h1, self.base[p + w], self.lora[p + f"attn.{target}.lora_A"],
                        self.lora[p + f"attn.{target}.lora_B"], scale)
                else:
                    qk[target] = h1 @ self.base[p + w].T
            q, k = qk["query"], qk["key"]
            v = h1 @ self.base[p + "attn.wv"].T

            qh = q.reshape(total, c.n_heads, c.d_head).transpose(1, 0, 2)
            kh = k.reshape(total, c.n_heads, c.d_head).transpose(1, 0, 2)
            vh = v.reshape(total, c.n_heads, c.d_head).transpose(1, 0, 2)
            scores = qh @ kh.transpose(0, 2, 1) / np.sqrt(c.d_head) + causal
            probs = _softmax_rows(scores)
            ctx = probs @ vh
            ctx_flat = ctx.transpose(1, 0, 2).reshape(total, c.d_model)
            attn_out = ctx_flat @ self.base[p + "attn.wo"].T
            x_mid = x_in + attn_out

            h2, ln2_cache = _ln_forward(x_mid, self.base[p + "ln2.gamma"],
                                        self.base[p + "ln2.beta"])
            z = h2 @ self.base[p + "mlp.w1"].T + self.base[p + "mlp.b1"]
            t = np.tanh(z)
            mlp_out = t @ self.base[p + "mlp.w2"].T + self.base[p + "mlp.b2"]
            x = x_mid + mlp_out

            if want_cache:
                layer_caches.append({
                    "x_in": x_in, "h1": h1, "ln1": ln1_cache,
                    "u": u, "qh": qh, "kh": kh, "vh": vh,
                    "probs": probs, "ctx_flat": ctx_flat,
                    "x_mid": x_mid, "h2": h2, "ln2": ln2_cache, "t": t,
                })

        xf, lnf_cache = _ln_forward(x, self.base["final_ln.gamma"],
                                    self.base["final_ln.beta"])
        logits = xf[na:] @ self.base["out.w"].T
        if not want_cache:
            return logits
        cache = {
            "audio": audio_cache, "layers": layer_caches,
            "xf": xf, "lnf": lnf_cache, "na": na, "total": total,
        }
        return logits, cache

    # -- loss and gradients ----------------------------------------------

    def loss_and_grads(self, ex: TrainingExample):
        """Mean masked next-token NLL and gradients for every trainable
        tensor. Returns (loss, grads) with grads keyed like
        trainable_parameters()."""
        from .losses import masked_nll_and_dlogits

        logits, cache = self.forward(ex.audio_tokens, ex.text_tokens, want_cache=True)
        targets = ex.text_tokens[1:]
        mask = ex.loss_mask[1:]
        loss, drows = masked_nll_and_dlogits(logits[:-1], targets, mask)
        dlogits = np.zeros_like(logits)
        dlogits[:-1] = drows
        grads = self._backward(dlogits, cache)
        return loss, grads

    def loss_only(self, ex: TrainingExample) -> float:
        from .losses import next_token_loss

        logits = self.forward(ex.audio_tokens, ex.text_tokens)
        return next_token_loss(logits[:-1], ex.text_tokens[1:], ex.loss_mask[1:])

    def _backward(self, dlogits: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
        c = self.cfg
        na, total = cache["na"], cache["total"]
        scale = self.lora_scale()
        grads: dict[str, np.ndarray] = {}

        dxf = np.zeros((total, c.d_model))
        dxf[na:] = dlogits @ self.base["out.w"]
        dx = _ln_backward(dxf, cache["lnf"], self.base["final_ln.gamma"])

        for i in reversed(range(c.n_layers)):
            p = f"layers.{i}."
            lc = cache["layers"][i]

            # MLP branch: x = x_mid + mlp(h2)
            dmlp = dx
            dt = dmlp @ self.base[p + "mlp.w2"]
            dz = dt * (1.0 - lc["t"] ** 2)
            dh2 = dz @ self.base[p + "mlp.w1"]
            dx_mid = dx + _ln_backward(dh2, lc["ln2"], self.base[p + "ln2.gamma"])

            # attention branch: x_mid = x_in + attn(h1)
            dattn = dx_mid
            dctx_flat = dattn @ self.base[p + "attn.wo"]
            dctx = dctx_flat.reshape(total, c.n_heads, c.d_head).transpose(1, 0, 2)
            probs, vh, qh, kh = lc["probs"], lc["vh"], lc["qh"], lc["kh"]
            dprobs = dctx @ vh.transpose(0, 2, 1)
            dvh = probs.transpose(0, 2, 1) @ dctx
            dscores = probs * (dprobs - (dprobs * probs).sum(axis=2, keepdims=True))
            dscores /= np.sqrt(c.d_head)
            dqh = dscores @ kh
            dkh = dscores.transpose(0, 2, 1) @ qh

            dq = dqh.transpose(1, 0, 2).reshape(total, c.d_model)
            dk = dkh.transpose(1, 0, 2).reshape(total, c.d_model)
            dv = dvh.transpose(1, 0, 2).reshape(total, c.d_model)

            h1 = lc["h1"]
            dh1 = dv @ self.base[p + "attn.wv"]
            dh1 = dh1 + dq @ self.base[p + "attn.wq"]
            dh1 = dh1 + dk @ self.base[p + "attn.wk"]
            # adapter terms after the base ones, query before key
            for target, dy in (("query", dq), ("key", dk)):
                if target in c.lora_targets:
                    a_name = p + f"attn.{target}.lora_A"
                    b_name = p + f"attn.{target}.lora_B"
                    du = scale * (dy @ self.lora[b_name])
                    grads[b_name] = scale * (dy.T @ lc["u"][target])
                    grads[a_name] = du.T @ h1
                    dh1 = dh1 + du @ self.lora[a_name]

            dx = dx_mid + _ln_backward(dh1, lc["ln1"], self.base[p + "ln1.gamma"])

        # embedding layer: audio rows are trainable, text rows are frozen
        da = dx[:na]
        ac = cache["audio"]
        grads["audio.proj.weight"] = ac["tokens"].T @ da
        grads["audio.proj.bias"] = da.sum(axis=0)
        dtokens = da @ self.projection.weight.T
        # pooling spread: each token averaged over 2 time rows x n_freq cells
        _, n_freq, _ = ac["grid_shape"]
        demb = np.repeat(dtokens[:, None, :], 2 * n_freq, axis=1) / (2 * n_freq)
        demb = demb.reshape(2 * na, n_freq, c.d_audio)
        patches = ac["patches"]
        flat_p = patches.reshape(-1, patches.shape[2])
        flat_d = demb.reshape(-1, c.d_audio)
        grads["audio.enc.weight"] = flat_p.T @ flat_d
        grads["audio.enc.bias"] = flat_d.sum(axis=0)
        grads["audio.enc.pos"] = demb
        return grads

    def sgd_step(self, grads: dict[str, np.ndarray], lr: float,
                 allowed: set[str] | None = None) -> None:
        """In-place descent on the trainable set; frozen tensors untouched."""
        params = self.trainable_parameters()
        for name, g in grads.items():
            if allowed is not None and name not in allowed:
                continue
            params[name] -= lr * g


def _ln_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * ivar
    return xhat * gamma + beta, (xhat, ivar)


def _ln_backward(dy: np.ndarray, ln_cache, gamma: np.ndarray) -> np.ndarray:
    xhat, ivar = ln_cache
    dxhat = dy * gamma
    mean_dxhat = dxhat.mean(axis=1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=1, keepdims=True)
    return ivar * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    return e / e.sum(axis=-1, keepdims=True)
