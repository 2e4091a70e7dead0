"""Toy autoregressive decoder with a frozen base and LoRA adapters on the
key/query projections, conditioned on 32 audio tokens. The audio input is
always a clip's PatchGrid: token pooling, then the patch encoder, then the
projection run inside forward, so gradients reach every audio parameter.

forward (training and scoring), prefill (the prompt of a decode) and step
(one new token) all run the rows through one layer pass, _run. Given a
KvCache, that pass writes each layer's keys and values into it, so prefill
fills an empty cache the same way step extends it. A decode reads only the
next-token logits after the prompt, so prefill runs its last layer's
queries, attention and MLP, the final norm and the head on the prompt's
last row alone, as forward's read_from does; every row still gets its keys
and values in every layer. A layer's intermediates are kept only for a
backward (forward's want_cache): on the cached path and in a plain forward
they are never built.

Each forward or prefill builds one weight table per layer (LayerWeights):
the adapters merged into their frozen projections, so that the layer gets
q, k and v from one product with the matrix
[Wq + scale Bq Aq | Wk + scale Bk Ak | Wv], beside the layer's frozen norm,
attention-output and MLP arrays, which _block and _backward read in place
of string-keyed lookups. prefill keeps the tables on its KvCache, so a
request decodes with the weights its prefill read. The tables are never
kept on the model: a later change to base or lora reaches the next forward
or prefill.

A one-row layer norm (every norm of step, and the last layer's second norm
and the final norm of prefill) takes the row's mean and inverse standard
deviation as Python floats. Those are the IEEE sum, division, square root
and reciprocal numpy applies to (1, 1) arrays, so the results are bit for
bit the same row of a multi-row norm, at fewer numpy calls per token.

Token ids must lie in 0..vocab_size - 1: forward, prefill and step raise
ValueError naming the first id outside that range and its text position,
where numpy would wrap a negative id to another row or fail with a bare
IndexError. TrainingExample checks its ids, targets included, against the
tokenizer's VOCAB_SIZE.

Training runs only the rows its loss reads. loss_and_grads finds the read
span, the text rows from the first to the last supervised target (row t
predicts token t + 1), and stops the forward after the span: a causal row
feeds only the rows after it. Rows before the span still feed it through
the last layer's keys and values, so that layer takes the merged q/k/v
product of every row but attends, and runs its MLP, final norm and head,
from the span's queries alone (forward's read_from); _backward mirrors this.
Splitting that product to form queries for the span only measured slower.

Attention scales the (rows, d_head) queries by 1/sqrt(d_head) before
their product with the keys, not the (rows, keys) scores after it, and the
backward puts the scale on dq and dk. The softmax backward's row term,
sum_j dP_ij P_ij, is taken as dctx_i . ctx_i (ctx = P v), a product over
d_head lanes instead of a pass over the attention tensor. When sqrt(d_head)
is a power of two, as at the default d_head of 16, scaling the queries is
exact: logits, prefill and step outputs and greedy ids are bit for bit
those of scaling the scores. At other widths they differ by float64
rounding. Gradients differ from the score-space formulas by rounding at
every width (tested to 1e-12 of each tensor's largest entry).

The causal mask is boolean, True where a key may be attended to. The
softmax takes each row's max over the kept lanes and exponentiates only
those, so no -inf reaches exp (which is several times slower on -inf than
on finite values); kept-lane probabilities equal those of an additive -inf
mask bit for bit.

Everything runs in float64 with a hand-written backward pass so gradients
can be audited against central finite differences. AudioTextLm creates and
names every tensor of the model in three dicts: base, the frozen decoder
(token and position embeddings, attention, MLP, layer norms, output head),
never touched by training; lora, the adapters' A and B matrices; and audio,
the patch encoder and the projection. The trainable set is lora plus audio.

Each adapter adds scale * B A to a frozen query or key projection W. B
starts at zero, so training starts exactly at the frozen model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..frontend import (PATCH_SIDE, FbankConfig, PatchGrid, check_encoder_shapes,
                        encode_patches, pool_tokens)
from .tokenizer import VOCAB_SIZE

LN_EPS = 1e-5
# std of the normal init of the frozen attention and MLP weights
BASE_SCALE = 0.1
# std of the normal init of the patch encoder and the projection
AUDIO_INIT_SCALE = 0.02
# the paper's adapter layout, fixed: rank 8, alpha 16, on query and key in every layer
LORA_RANK = 8
LORA_ALPHA = 16.0
LORA_SCALE = LORA_ALPHA / LORA_RANK
LORA_TARGETS = ("query", "key")


@dataclass
class DecoderConfig:
    n_layers: int = 4
    n_heads: int = 4
    d_model: int = 64
    # fixed, not settable: VOCAB_SIZE, and the tokens pool_tokens makes of the patch grid
    vocab_size: int = field(default=VOCAB_SIZE, init=False)
    max_seq_len: int = 192
    d_audio: int = 64
    n_audio_tokens: int = field(default=FbankConfig.patch_grid[0] // 2, init=False)
    mlp_ratio: int = 4

    def __post_init__(self) -> None:
        if self.n_layers < 0:
            raise ValueError(f"n_layers must be >= 0, got {self.n_layers}")
        for name in ("n_heads", "d_model", "max_seq_len", "d_audio", "mlp_ratio"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


def llama_7b_geometry() -> DecoderConfig:
    """7B-class geometry preset, used only for shape and count arithmetic."""
    return DecoderConfig(n_layers=32, n_heads=32, d_model=4096, max_seq_len=2048)


def count_lora_params(geom: DecoderConfig) -> int:
    return geom.n_layers * len(LORA_TARGETS) * 2 * LORA_RANK * geom.d_model  # A and B


@dataclass
class TrainingExample:
    """One supervised row: audio conditioning plus a masked text sequence."""

    audio: PatchGrid
    text_tokens: np.ndarray
    loss_mask: np.ndarray

    def __post_init__(self) -> None:
        self.text_tokens = np.asarray(self.text_tokens, dtype=np.int64)
        self.loss_mask = np.asarray(self.loss_mask, dtype=bool)
        if self.text_tokens.shape != self.loss_mask.shape:
            raise ValueError("loss_mask must align with text_tokens")
        if self.loss_mask[:1].any():
            raise ValueError("the leading token is never supervised")
        _check_token_ids(self.text_tokens)


class LayerWeights(NamedTuple):
    """One decoder layer's weights as _block and _backward read them: the
    merged q/k/v matrix (h1 @ w_qkv is [q | k | v]) and the layer's frozen
    norm, attention-output and MLP arrays (base's own, not copies)."""

    w_qkv: np.ndarray
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    wo: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class KvCache:
    """Keys and values of every position run so far, for incremental
    decoding: buffers of shape (n_layers, n_heads, max_seq_len, d_head)
    whose first `length` positions are filled. weights holds each layer's
    LayerWeights as prefill built them; every step of the request uses
    these, not the model's base and adapters of the moment."""

    keys: np.ndarray
    values: np.ndarray
    length: int
    weights: list[LayerWeights]


def tensor_shapes(c: DecoderConfig) -> dict[str, dict[str, tuple[int, ...]]]:
    """The shape of every tensor of an AudioTextLm of config c, by group
    (base, lora, audio) and name, in the order __init__ creates them."""
    d, h = c.d_model, c.mlp_ratio * c.d_model
    base = {"tok_emb": (c.vocab_size, d), "pos_emb": (c.max_seq_len, d),
            "final_ln.gamma": (d,), "final_ln.beta": (d,), "out.w": (c.vocab_size, d)}
    lora = {}
    for i in range(c.n_layers):
        p = f"layers.{i}."
        base.update({p + "ln1.gamma": (d,), p + "ln1.beta": (d,),
                     p + "ln2.gamma": (d,), p + "ln2.beta": (d,)})
        base.update({p + f"attn.{w}": (d, d) for w in ("wq", "wk", "wv", "wo")})
        base.update({p + "mlp.w1": (h, d), p + "mlp.b1": (h,),
                     p + "mlp.w2": (d, h), p + "mlp.b2": (d,)})
        for t in LORA_TARGETS:
            lora[p + f"attn.{t}.lora_A"] = (LORA_RANK, d)
            lora[p + f"attn.{t}.lora_B"] = (d, LORA_RANK)
    audio = {"audio.enc.weight": (PATCH_SIDE * PATCH_SIDE, c.d_audio),
             "audio.enc.bias": (c.d_audio,),
             "audio.enc.pos": (*FbankConfig.patch_grid, c.d_audio),
             "audio.proj.weight": (c.d_audio, d), "audio.proj.bias": (d,)}
    return {"base": base, "lora": lora, "audio": audio}


class AudioTextLm:
    """Frozen decoder + LoRA + trainable audio path, one example at a time."""

    def __init__(self, cfg: DecoderConfig | None = None, seed: int = 0,
                 out_scale: float = 0.125, lora_a_scale: float = 0.01):
        self.cfg = cfg or DecoderConfig()
        shapes = tensor_shapes(self.cfg)
        rng = np.random.default_rng(seed)
        enc_rng, proj_rng = (np.random.default_rng(seed + k) for k in (1, 2))

        def init(name: str, shape: tuple[int, ...], std: float,
                 stream: np.random.Generator) -> np.ndarray:
            # norm gains start at one; norm offsets, biases and adapter B
            # at zero; everything else is a normal draw from stream
            if name.endswith("gamma"):
                return np.ones(shape)
            if name.endswith(("beta", "bias", ".b1", ".b2", "lora_B")):
                return np.zeros(shape)
            return stream.normal(0.0, std, size=shape)

        base_std = {"tok_emb": 0.02, "pos_emb": 0.02, "out.w": out_scale}
        self.base: dict[str, np.ndarray] = {
            name: init(name, shape, base_std.get(name, BASE_SCALE), rng)
            for name, shape in shapes["base"].items()}
        self.lora: dict[str, np.ndarray] = {
            name: init(name, shape, lora_a_scale, rng)
            for name, shape in shapes["lora"].items()}
        self.audio: dict[str, np.ndarray] = {
            name: init(name, shape, AUDIO_INIT_SCALE,
                       proj_rng if name == "audio.proj.weight" else enc_rng)
            for name, shape in shapes["audio"].items()}

    @classmethod
    def from_tensors(cls, cfg: DecoderConfig,
                     tensors: dict[str, dict[str, np.ndarray]]) -> AudioTextLm:
        """A model of config cfg holding the given arrays, not copies, grouped,
        named and ordered as tensor_shapes(cfg) gives them; nothing is drawn."""
        model = cls.__new__(cls)
        model.cfg = cfg
        shapes = tensor_shapes(cfg)
        model.base, model.lora, model.audio = (
            {name: tensors[group][name] for name in shapes[group]}
            for group in ("base", "lora", "audio"))
        return model

    # -- parameter bookkeeping ------------------------------------------

    def trainable_parameters(self) -> dict[str, np.ndarray]:
        return {**self.lora, **self.audio}

    # -- audio path ------------------------------------------------------

    def _audio_rows(self, audio: PatchGrid) -> tuple[np.ndarray, dict]:
        """Pool, encode and project the clip's patches to d_model rows,
        keeping the intermediates needed to push gradients back into the
        encoder.

        The patch encoder is linear and pooling is a mean, so pooling the
        patches and the offsets first gives pool_tokens(encode_patches(...))
        to float64 rounding while encoding one row per token rather than
        one per patch. Shapes are checked against the full grid first.
        """
        if not isinstance(audio, PatchGrid):
            raise TypeError(f"audio must be a PatchGrid, got {type(audio).__name__}")
        a = self.audio
        weight, pos = a["audio.enc.weight"], a["audio.enc.pos"]
        grid_shape = check_encoder_shapes(audio.patches.shape, weight, pos)
        pooled = pool_tokens(audio.patches)
        # one grid row of n_audio_tokens cells: numpy then makes the encoder
        # a single matrix product instead of one per token
        tokens = encode_patches(PatchGrid(pooled[None]), weight, a["audio.enc.bias"],
                                pool_tokens(pos)[None])[0]
        if tokens.shape != (self.cfg.n_audio_tokens, self.cfg.d_audio):
            raise ValueError(f"audio tokens of shape {tokens.shape}, expected "
                             f"({self.cfg.n_audio_tokens}, d_audio {self.cfg.d_audio})")
        rows = tokens @ a["audio.proj.weight"] + a["audio.proj.bias"]
        return rows, {"pooled": pooled, "grid_shape": grid_shape, "tokens": tokens}

    # -- forward ---------------------------------------------------------

    def forward(self, audio, text_ids: np.ndarray,
                want_cache: bool = False, read_from: int = 0):
        """Causal forward over [audio rows | text embeddings].

        Returns logits of shape (len(text_ids) - read_from, vocab): row t
        is the next-token distribution computed at text position
        read_from + t, so it sees text tokens 0..read_from + t and every
        audio token. The last layer runs its queries and everything after
        them only from that text row on: the audio rows never reach the head.
        """
        na = self.cfg.n_audio_tokens
        audio_rows, audio_cache = self._audio_rows(audio)
        x = self._input_rows(audio_rows, text_ids)
        n_out = x.shape[0] - na - read_from
        if read_from < 0 or n_out < 1:
            raise ValueError(f"read_from {read_from} is outside the {x.shape[0] - na} "
                             "text rows")
        weights = self._layer_weights()
        xf, lnf_cache, layer_caches = self._run(x, weights, first=na + read_from,
                                                keep=want_cache)
        # the logits are xf's trailing rows (with no layer it holds every row)
        logits = xf[xf.shape[0] - n_out:] @ self.base["out.w"].T
        if not want_cache:
            return logits
        return logits, {"audio": audio_cache, "layers": layer_caches, "weights": weights,
                        "lnf": lnf_cache, "na": na, "total": x.shape[0]}

    def _layer_weights(self) -> list[LayerWeights]:
        """Every layer's LayerWeights, read from base and lora as they are
        now. w_qkv is the (d_model, 3 d_model) transpose of
        [Wq + scale Bq Aq | Wk + scale Bk Ak | Wv] stacked by rows, each
        adapter merged into its frozen projection. Built per call, never
        kept on the model, so a change to base or lora reaches the next
        forward or prefill."""
        base, tables = self.base, []
        for i in range(self.cfg.n_layers):
            p = f"layers.{i}."
            rows = [base[p + "attn." + w]
                    + LORA_SCALE * (self.lora[p + f"attn.{t}.lora_B"]
                                    @ self.lora[p + f"attn.{t}.lora_A"])
                    for t, w in zip(LORA_TARGETS, ("wq", "wk"))]
            w_qkv = np.concatenate([*rows, base[p + "attn.wv"]]).T
            tables.append(LayerWeights(w_qkv, *(base[p + name] for name in (
                "ln1.gamma", "ln1.beta", "attn.wo", "ln2.gamma", "ln2.beta",
                "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2"))))
        return tables

    def _input_rows(self, audio_rows: np.ndarray, text_ids) -> np.ndarray:
        """[audio rows | token embeddings], before position embeddings."""
        text_ids = np.asarray(text_ids, dtype=np.int64)
        if text_ids.size == 0:
            raise ValueError("at least one text token is required")
        _check_token_ids(text_ids)
        return np.concatenate([audio_rows, self.base["tok_emb"][text_ids]])

    def _run(self, x: np.ndarray, weights: list[LayerWeights],
             past: KvCache | None = None, first: int = 0, keep: bool = False):
        """The one pass through the layer stack and the final norm, with
        weights every layer's LayerWeights.

        The rows x take the positions after past.length, or from 0 without
        a cache. With past, their keys and values are written into it and
        past.length advances; a sequence past max_seq_len raises ValueError
        before past is touched. The last layer runs its queries and all
        after them only on the rows from first on, so only those leave it.
        Returns the normed rows, the final norm's intermediates and, with
        keep, every layer's intermediates for the backward; without keep
        the list is empty and no block builds them.
        """
        c = self.cfg
        n = x.shape[0]
        start = 0 if past is None else past.length
        end = start + n
        _check_length(end, c.max_seq_len)
        x = x + self.base["pos_emb"][start:end]
        # a single row may attend to every position so far: it needs no mask
        causal = _causal_mask(n, start) if n > 1 else None
        layer_caches = []
        for i in range(c.n_layers):
            # rows before first still need every earlier layer: they feed the
            # last layer's keys and values
            skip = first if i == c.n_layers - 1 else 0
            x, layer_cache = self._block(i, x, weights[i],
                                         None if causal is None else causal[skip:],
                                         past, skip, keep)
            if keep:
                layer_caches.append(layer_cache)
        if past is not None:
            past.length = end
        xf, lnf_cache = _ln_forward(x, self.base["final_ln.gamma"],
                                    self.base["final_ln.beta"])
        return xf, lnf_cache, layer_caches

    def _block(self, i: int, x: np.ndarray, lw: LayerWeights,
               causal: np.ndarray | None,
               past: KvCache | None = None, first: int = 0,
               keep: bool = True) -> tuple[np.ndarray, dict | None]:
        """Decoder layer i over the rows x; returns the layer's output rows
        and, with keep, the intermediates the backward pass reads (None
        without).

        lw is the layer's table from _layer_weights. Without past the rows
        attend among themselves. With past they follow its first
        past.length positions: their keys and values are written into
        past's buffers for layer i and they attend to every position up to
        their own. Every row gets a key and a value, but only the rows from
        first on get a query and an output. causal is the boolean mask of
        shape (len(x) - first, positions attended to), or None for no mask.
        """
        c = self.cfg
        n_heads, d_head = c.n_heads, c.d_head
        n = x.shape[0]
        h1, ln1_cache = _ln_forward(x, lw.ln1_gamma, lw.ln1_beta)
        qh, kh, vh = (h1 @ lw.w_qkv).reshape(n, 3, n_heads, d_head).transpose(1, 2, 0, 3)
        qh = qh[:, first:]
        keys, values = kh, vh
        if past is not None:
            end = past.length + n
            past.keys[i, :, past.length:end] = kh
            past.values[i, :, past.length:end] = vh
            keys, values = past.keys[i, :, :end], past.values[i, :, :end]
        scores = (qh / math.sqrt(d_head)) @ keys.transpose(0, 2, 1)
        probs = _softmax_rows(scores, causal)
        # each head's output is written straight into its lanes of ctx_flat
        ctx_flat = np.empty((n - first, c.d_model))
        ctx = ctx_flat.reshape(n - first, n_heads, d_head).transpose(1, 0, 2)
        np.matmul(probs, values, out=ctx)
        x_mid = ctx_flat @ lw.wo.T
        x_mid += x[first:]

        h2, ln2_cache = _ln_forward(x_mid, lw.ln2_gamma, lw.ln2_beta)
        z = h2 @ lw.w1.T
        z += lw.b1
        t = np.tanh(z, out=z)
        out = t @ lw.w2.T
        out += lw.b2
        out += x_mid
        if not keep:
            return out, None
        return out, {
            "h1": h1, "ln1": ln1_cache, "qh": qh, "kh": kh, "vh": vh,
            "probs": probs, "ctx": ctx, "ln2": ln2_cache, "t": t, "first": first,
        }

    # -- incremental decoding --------------------------------------------

    def prefill(self, audio, prompt_ids: np.ndarray) -> tuple[np.ndarray, KvCache]:
        """Run [audio rows | prompt] through the layers into an empty cache,
        each layer writing the keys and values of every row as step does.

        Returns the next-token logits after the prompt, shape (vocab,), and
        the cache. Only the last row is read, so the last layer's queries,
        attention and MLP, the final norm and the head run on it alone
        (forward's read_from); they match the last row of forward to
        float64 rounding.
        """
        c = self.cfg
        shape = (c.n_layers, c.n_heads, c.max_seq_len, c.d_head)
        kv = KvCache(np.empty(shape), np.empty(shape), 0, self._layer_weights())
        audio_rows, _ = self._audio_rows(audio)
        x = self._input_rows(audio_rows, prompt_ids)
        xf, _, _ = self._run(x, kv.weights, kv, first=x.shape[0] - 1)
        return self._last_logits(xf), kv

    def step(self, kv: KvCache, token_id: int) -> np.ndarray:
        """Append one text token after the kv.length cached positions and
        return its next-token logits, shape (vocab,).

        Matches the last row of forward over the whole sequence to float64
        rounding. Raises forward's ValueError when the token would pass
        max_seq_len or lies outside the vocabulary, leaving the cache as it
        was.
        """
        token_id = int(token_id)
        if not 0 <= token_id < VOCAB_SIZE:
            _check_token_ids(np.array([token_id]), kv.length - self.cfg.n_audio_tokens)
        # a one-row view of the embedding: _run adds the position into a new array
        xf, _, _ = self._run(self.base["tok_emb"][token_id:token_id + 1], kv.weights, kv)
        return self._last_logits(xf)

    def _last_logits(self, xf: np.ndarray) -> np.ndarray:
        # with no layers the final norm ran every row: take the last
        return (xf[-1:] @ self.base["out.w"].T)[0]

    # -- loss and gradients ----------------------------------------------

    def loss_and_grads(self, ex: TrainingExample):
        """Mean masked next-token NLL and gradients for every trainable
        tensor. Returns (loss, grads) with grads keyed like
        trainable_parameters().

        Only the read span runs in full: the text rows from the first to
        the last supervised target's row. The forward stops after it, and
        its last layer computes only keys and values before it (forward's
        read_from). Loss and gradients equal those of a forward over every
        row and _backward to float64 rounding. A sequence longer than
        max_seq_len raises forward's ValueError even when the rows past the
        span would fit.
        """
        from .losses import masked_nll_and_dlogits

        logits, targets, mask, cache = self._read_span(ex, want_cache=True)
        loss, dlogits = masked_nll_and_dlogits(logits, targets, mask)
        return loss, self._backward(dlogits, cache)

    def loss_only(self, ex: TrainingExample) -> float:
        """loss_and_grads' loss, from the same read span and no backward."""
        from .losses import next_token_loss

        logits, targets, mask, _ = self._read_span(ex)
        return next_token_loss(logits, targets, mask)

    def _read_span(self, ex: TrainingExample, want_cache: bool = False):
        """(logits, targets, mask, cache) over the read span: the text rows
        from the first to the last supervised target's row, their targets and
        loss mask, and forward's cache (None unless want_cache)."""
        _check_length(self.cfg.n_audio_tokens + ex.text_tokens.size, self.cfg.max_seq_len)
        mask = ex.loss_mask[1:]
        read = np.flatnonzero(mask)
        if read.size == 0:
            raise ValueError("empty loss mask")
        first, end = int(read[0]), int(read[-1]) + 1
        out = self.forward(ex.audio, ex.text_tokens[:end], want_cache=want_cache,
                           read_from=first)
        logits, cache = out if want_cache else (out, None)
        return logits, ex.text_tokens[first + 1:end + 1], mask[first:end], cache

    def _backward(self, dlogits: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
        """Gradients of every trainable tensor from dlogits, the gradient on
        forward's logits, and forward's cache."""
        c = self.cfg
        na, total = cache["na"], cache["total"]
        grads: dict[str, np.ndarray] = {}

        # the logits are the trailing rows of the final norm's output
        dxf = np.zeros_like(cache["lnf"][0])
        dxf[dxf.shape[0] - dlogits.shape[0]:] = dlogits @ self.base["out.w"]
        dx = _ln_backward(dxf, cache["lnf"], self.base["final_ln.gamma"])

        for i in reversed(range(c.n_layers)):
            p = f"layers.{i}."
            lc, lw = cache["layers"][i], cache["weights"][i]
            # dx covers the rows from `first` on, the ones that had a query
            first = lc["first"]

            # MLP branch: x = x_mid + mlp(h2)
            # dz = (1 - t^2) * dt, formed in place
            t = lc["t"]
            dz = t * t
            np.subtract(1.0, dz, out=dz)
            dz *= dx @ lw.w2
            dx_mid = _ln_backward(dz @ lw.w1, lc["ln2"], lw.ln2_gamma)
            dx_mid += dx

            # attention branch: x_mid = x_in + attn(h1)
            dctx_flat = dx_mid @ lw.wo
            dctx = dctx_flat.reshape(total - first, c.n_heads, c.d_head).transpose(1, 0, 2)
            # [dq | dk | dv], laid out like h1 @ w_qkv; dq is 0 before first.
            # Each head's gradients are written straight into their lanes.
            dqkv = np.empty((total, 3, c.n_heads, c.d_head))
            dqkv[:first, 0] = 0.0
            heads = dqkv.transpose(1, 2, 0, 3)
            _attention_backward(dctx, lc, c.d_head,
                                heads[0, :, first:], heads[1], heads[2])
            dqkv = dqkv.reshape(total, 3 * c.d_model)
            h1 = lc["h1"]
            dh1 = dqkv @ lw.w_qkv.T
            # q and k are h1 W^T + scale (h1 A^T) B^T for their adapter's A, B
            for j, target in enumerate(LORA_TARGETS):
                a_name = p + f"attn.{target}.lora_A"
                b_name = p + f"attn.{target}.lora_B"
                dy = dqkv[:, j * c.d_model:(j + 1) * c.d_model]
                grads[b_name] = LORA_SCALE * (dy.T @ (h1 @ self.lora[a_name].T))
                grads[a_name] = (LORA_SCALE * (dy @ self.lora[b_name])).T @ h1

            dx = _ln_backward(dh1, lc["ln1"], lw.ln1_gamma)
            dx[first:] += dx_mid

        # embedding layer: audio rows are trainable, text rows are frozen
        grads.update(self._audio_backward(dx[:na], cache["audio"]))
        return grads

    def _audio_backward(self, da: np.ndarray, ac: dict) -> dict[str, np.ndarray]:
        """Gradients of the five audio tensors, given da, the gradient on
        the audio rows, and _audio_rows' intermediates ac."""
        grads = {"audio.proj.weight": ac["tokens"].T @ da,
                 "audio.proj.bias": da.sum(axis=0)}
        dtokens = da @ self.audio["audio.proj.weight"].T
        # the encoder saw the pooled patches; each offset cell is averaged
        # into its token over 2 time rows x n_freq cells
        grads["audio.enc.weight"] = ac["pooled"].T @ dtokens
        grads["audio.enc.bias"] = dtokens.sum(axis=0)
        _, n_freq, _ = ac["grid_shape"]
        demb = np.repeat(dtokens[:, None, :], 2 * n_freq, axis=1) / (2 * n_freq)
        grads["audio.enc.pos"] = demb.reshape(ac["grid_shape"])
        return grads

    def sgd_step(self, grads: dict[str, np.ndarray], lr: float,
                 allowed: set[str] | None = None) -> None:
        """In-place descent on the trainable set; frozen tensors untouched."""
        params = self.trainable_parameters()
        for name, g in grads.items():
            if allowed is not None and name not in allowed:
                continue
            params[name] -= lr * g


def _check_length(total: int, max_seq_len: int) -> None:
    if total > max_seq_len:
        raise ValueError(f"sequence length {total} exceeds max {max_seq_len}")


def _check_token_ids(ids: np.ndarray, offset: int = 0) -> None:
    """Raise ValueError naming the first of ids outside 0..VOCAB_SIZE - 1,
    with its text position (offset + its index in ids)."""
    if ids.size and (np.minimum.reduce(ids) < 0 or np.maximum.reduce(ids) >= VOCAB_SIZE):
        pos = int(np.flatnonzero((ids < 0) | (ids >= VOCAB_SIZE))[0])
        raise ValueError(f"token id {int(ids[pos])} at position {offset + pos} is outside "
                         f"the vocabulary (vocab_size {VOCAB_SIZE})")


def _causal_mask(n: int, start: int) -> np.ndarray:
    """Mask for n rows at positions start.. attending to positions
    0..start+n-1: True where the key lies at or before the query."""
    return np.tri(n, start + n, k=start, dtype=bool)


def _ln_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    # the sums numpy's x.mean and x.var take, with the mean taken once; the
    # (rows, d) arrays are updated in place. A single row (step, and
    # prefill's last layer and final norm) takes its mean and inverse
    # standard deviation as Python floats: the same IEEE sum, division,
    # square root and reciprocal numpy applies to (1, 1) arrays, without
    # their per-call overhead. ivar is returned as (rows, 1) either way.
    n = x.shape[1]
    if x.shape[0] == 1:
        xhat = x - float(np.add.reduce(x, 1)[0]) / n
        inv = 1.0 / math.sqrt(float(np.add.reduce(xhat * xhat, 1)[0]) / n + LN_EPS)
        xhat *= inv
        ivar = np.array([[inv]])
    else:
        xhat = x - np.add.reduce(x, 1, keepdims=True) / n
        ivar = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, 1, keepdims=True) / n + LN_EPS)
        xhat *= ivar
    out = xhat * gamma
    out += beta
    return out, (xhat, ivar)


def _ln_backward(dy: np.ndarray, ln_cache, gamma: np.ndarray) -> np.ndarray:
    # ivar * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), with numpy's
    # mean arithmetic, formed in place in dxhat
    xhat, ivar = ln_cache
    n = xhat.shape[1]
    dxhat = dy * gamma
    mean_dxhat = np.add.reduce(dxhat, 1, keepdims=True) / n
    mean_dxhat_xhat = np.add.reduce(dxhat * xhat, 1, keepdims=True) / n
    dxhat -= mean_dxhat
    dxhat -= xhat * mean_dxhat_xhat
    dxhat *= ivar
    return dxhat


def _attention_backward(dctx: np.ndarray, lc: dict, d_head: int,
                        dq: np.ndarray, dk: np.ndarray, dv: np.ndarray) -> None:
    """Write the gradients on one layer's queries, keys and values into dq,
    dk and dv, shaped like lc's qh, kh and vh, from dctx, the gradient on
    its attention output ctx = P v, and the layer's cache lc.

    The softmax backward is P * (dP - rowsum(dP * P)), formed in place in
    dP; its row term rowsum(dP * P) is dctx . ctx for each row, since
    sum_j dP_ij P_ij = dctx_i . sum_j P_ij v_j. The scores were
    (q / sqrt(d_head)) k^T, so dq and dk take the scale.
    """
    probs = lc["probs"]
    dscores = dctx @ lc["vh"].transpose(0, 2, 1)
    dscores -= np.add.reduce(dctx * lc["ctx"], 2, keepdims=True)
    dscores *= probs
    scale = math.sqrt(d_head)
    np.matmul(dscores, lc["kh"], out=dq)
    dq /= scale
    np.matmul(dscores.transpose(0, 2, 1), lc["qh"], out=dk)
    dk /= scale
    np.matmul(probs.transpose(0, 2, 1), dctx, out=dv)


def _softmax_rows(scores: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis; scores is overwritten. Lanes where the
    mask keep is False get probability 0 and are never exponentiated, and
    the kept lanes come out as with -inf added to the dropped ones."""
    where = True if keep is None else keep
    scores -= np.maximum.reduce(scores, -1, keepdims=True, where=where,
                                initial=-np.inf)
    np.exp(scores, out=scores, where=where)
    if keep is not None:
        np.copyto(scores, 0.0, where=~keep)
    scores /= np.add.reduce(scores, -1, keepdims=True)
    return scores
