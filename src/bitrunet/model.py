"""The segmentation network: attention-gated CNN encoder, two transformer
blocks on the deepest feature maps, and a mirrored decoder with skips.

Layout, for base width 16 and a (H, W, D) input divisible by 16:

    init   stride 1   4 -> 16      @ H          -> direct skip
    e1     stride 2   16 -> 32     @ H/2        -> direct skip
    e2     stride 2   32 -> 64     @ H/4        -> direct skip
    e3     stride 2   64 -> 128    @ H/8        -> transformer skip
    e4     stride 2   128 -> 256   @ H/16       -> transformer bottleneck
    d4..d1            transposed conv up, concat skip, fuse conv
    final  stride 1   16 -> num_classes (raw scores, no softmax)

Every stride-2 encoder stage is a conv block followed by channel-then-spatial
attention gating. Conv blocks use group normalization (groups capped at 8)
and ReLU; those choices live in ModelConfig so they are auditable.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .tensor import (
    Tensor,
    _accum,
    _norm_input_grad,
    _normalize,
    _record,
    _recording,
    _unbroadcast,
    add,
    attention,
    concat,
    conv3d,
    conv_transpose3d,
    div,
    gelu,
    layer_norm,
    matmul,
    mul,
    relu,
    reshape,
    sigmoid,
    tmax,
    tsum,
)


@dataclass
class ModelConfig:
    in_channels: int = 4
    base_width: int = 16
    num_classes: int = 4
    embed_dim: int = 384
    vit_layers: int = 4
    heads: int = 8
    ffn_hidden: int = 0  # 0 means 4 * embed_dim
    input_size: tuple = (128, 128, 128)
    cbam_reduction: int = 8
    norm_groups: int = 8  # cap; a stage uses min(norm_groups, channels)

    def __post_init__(self):
        if self.ffn_hidden == 0:
            self.ffn_hidden = 4 * self.embed_dim
        for f in fields(self):
            value, low = getattr(self, f.name), 0 if f.name == "vit_layers" else 1
            if f.name != "input_size" and value < low:
                raise ValueError(f"{f.name} must be at least {low}, got {value}")
        if self.embed_dim % self.heads:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )
        self.input_size = tuple(int(s) for s in self.input_size)
        if len(self.input_size) != 3:
            raise ValueError(f"input_size must have 3 axes, got {self.input_size}")
        for ax, s in enumerate(self.input_size):
            if s < 1:
                raise ValueError(f"input spatial axis {ax} size {s} is not positive")
            if s % 16:
                raise ValueError(
                    f"input spatial axis {ax} size {s} not divisible by 16"
                )

    @property
    def encoder_widths(self):
        """Channel ladder [4C, 8C, 16C, 32C, 64C] with 4C = base_width."""
        return [self.base_width * 2 ** i for i in range(5)]

    def to_text(self):
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["input_size"] = ",".join(str(s) for s in self.input_size)
        return "".join(f"{k}={v}\n" for k, v in values.items())

    @classmethod
    def from_text(cls, text):
        kv = parse_key_values(text, "model config")
        names = [f.name for f in fields(cls)]
        missing = [n for n in names if n not in kv]
        if missing:
            raise ValueError(f"model config is missing key(s): {', '.join(missing)}")
        values = {n: int(kv[n]) for n in names if n != "input_size"}
        values["input_size"] = tuple(int(n) for n in kv["input_size"].split(","))
        return cls(**values)


def parse_key_values(text, source):
    """``key=value`` lines into a dict; blank lines and ``#`` comments skip,
    and a key given twice is an error."""
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{source}: malformed config line {line!r}")
        k, _, v = line.partition("=")
        k = k.strip()
        if k in kv:
            raise ValueError(f"{source}: key {k!r} is given twice")
        kv[k] = v.strip()
    return kv


class _Builder:
    """Allocates named, seeded parameters into the model's registry. With
    no ``rng`` the weights are allocated but not drawn."""

    def __init__(self, params, rng, dtype):
        self.params = params
        self.rng = rng
        self.dtype = dtype

    def param(self, name, array):
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name}")
        t = Tensor(array, requires_grad=True, dtype=self.dtype)
        self.params[name] = t
        return t

    def normal(self, name, std, shape):
        if self.rng is None:
            return self.param(name, np.empty(shape, dtype=self.dtype))
        return self.param(name, self.rng.normal(0.0, std, shape))

    def conv_weight(self, name, shape):
        fan_in = shape[1] * shape[2] * shape[3] * shape[4]
        return self.normal(name, math.sqrt(2.0 / fan_in), shape)

    def token_weight(self, name, shape):
        return self.normal(name, 0.02, shape)

    def mlp_weight(self, name, shape):
        return self.normal(name, math.sqrt(2.0 / shape[0]), shape)

    def zeros(self, name, shape):
        return self.param(name, np.zeros(shape))

    def ones(self, name, shape):
        return self.param(name, np.ones(shape))


def group_norm(x, gamma, beta, groups, eps=1e-5):
    """Group normalization over (C/G, spatial) slabs plus per-channel affine,
    recorded as one tape op (Wu & He 2018)."""
    n, c = x.shape[:2]
    g = min(groups, c)
    while c % g:
        g -= 1
    grouped, per_channel = (n, g, -1), (c, 1, 1, 1)
    xhat, inv = _normalize(x.data.reshape(grouped), eps)
    xhat = xhat.reshape(x.shape)
    gd = gamma.data.reshape(per_channel)
    out = Tensor(xhat * gd + beta.data.reshape(per_channel))
    if _recording(x, gamma, beta):
        sx, sg, sb, shape = x.slot, gamma.slot, beta.slot, x.shape
        def rule(gy):
            if sg is not None:
                _accum(sg, _unbroadcast(gy * xhat, per_channel).reshape(c))
            if sb is not None:
                _accum(sb, _unbroadcast(gy, per_channel).reshape(c))
            if sx is not None:
                dxh = (gy * gd).reshape(grouped)
                dx = _norm_input_grad(dxh, xhat.reshape(grouped), inv)
                _accum(sx, dx.reshape(shape))
        _record(out, rule)
    return out


class ConvBlock:
    """3x3x3 convolution, then group norm + ReLU unless ``plain``."""

    def __init__(self, b, name, cin, cout, stride, groups, plain=False):
        self.stride = stride
        self.w = b.conv_weight(f"{name}.w", (cout, cin, 3, 3, 3))
        self.b = b.zeros(f"{name}.b", (cout,))
        self.plain = plain
        self.groups = groups
        if not plain:
            self.gamma = b.ones(f"{name}.gn_w", (cout,))
            self.beta = b.zeros(f"{name}.gn_b", (cout,))

    def __call__(self, x):
        y = conv3d(x, self.w, self.b, self.stride)
        if self.plain:
            return y
        return relu(group_norm(y, self.gamma, self.beta, self.groups))


class UpBlock:
    """Stride-2 transposed convolution doubling each spatial size."""

    def __init__(self, b, name, cin, cout, groups):
        self.w = b.conv_weight(f"{name}.w", (cin, cout, 3, 3, 3))
        self.b = b.zeros(f"{name}.b", (cout,))
        self.gamma = b.ones(f"{name}.gn_w", (cout,))
        self.beta = b.zeros(f"{name}.gn_b", (cout,))
        self.groups = groups

    def __call__(self, x):
        y = conv_transpose3d(x, self.w, self.b, stride=2)
        return relu(group_norm(y, self.gamma, self.beta, self.groups))


class CbamBlock:
    """Channel attention then spatial attention, both multiplicative."""

    def __init__(self, b, name, channels, reduction):
        hidden = max(1, channels // reduction)
        self.channels = channels
        self.w1 = b.mlp_weight(f"{name}.mlp_w1", (channels, hidden))
        self.b1 = b.zeros(f"{name}.mlp_b1", (hidden,))
        self.w2 = b.mlp_weight(f"{name}.mlp_w2", (hidden, channels))
        self.b2 = b.zeros(f"{name}.mlp_b2", (channels,))
        self.ws = b.conv_weight(f"{name}.spatial_w", (1, 2, 3, 3, 3))
        self.bs = b.zeros(f"{name}.spatial_b", (1,))

    def _mlp(self, pooled):
        h = relu(add(matmul(pooled, self.w1), self.b1))
        return add(matmul(h, self.w2), self.b2)

    def channel_attention(self, f):
        """Per-channel gate (N, C, 1, 1, 1), entries in (0, 1)."""
        n, c = f.shape[:2]
        n_sp = f.shape[2] * f.shape[3] * f.shape[4]
        # each pool reads f itself: a reshape shared by both would change the
        # order in which their gradients add into f, and so the last bit
        avg = div(tsum(f, axis=(2, 3, 4)), n_sp)
        mx = tmax(reshape(f, (n, c, n_sp)), axis=-1)
        gate = sigmoid(add(self._mlp(avg), self._mlp(mx)))
        return reshape(gate, (n, c, 1, 1, 1))

    def spatial_attention(self, f):
        """Per-voxel gate (N, 1, H, W, D) from the [avg, max] channel summary."""
        c = f.shape[1]
        avg = mul(tsum(f, axis=1, keepdims=True), 1.0 / c)
        mx = tmax(f, axis=1, keepdims=True)
        summary = concat([avg, mx], axis=1)
        return sigmoid(conv3d(summary, self.ws, self.bs))


def cbam_apply(f, block):
    """Refine a feature map: gate by channel attention, then spatial."""
    if f.shape[1] != block.channels:
        raise ValueError(
            f"cbam_apply: channel axis 1 has size {f.shape[1]}, "
            f"expected {block.channels}"
        )
    f1 = mul(block.channel_attention(f), f)
    return mul(block.spatial_attention(f1), f1)


class TransformerLayer:
    """Pre-norm attention and feed-forward sublayers with residuals."""

    def __init__(self, b, name, d, heads, ffn_hidden):
        self.heads = heads
        self.ln1_g = b.ones(f"{name}.ln1_w", (d,))
        self.ln1_b = b.zeros(f"{name}.ln1_b", (d,))
        self.wq = b.token_weight(f"{name}.wq", (d, d))
        self.bq = b.zeros(f"{name}.bq", (d, 1))
        self.wk = b.token_weight(f"{name}.wk", (d, d))
        self.bk = b.zeros(f"{name}.bk", (d, 1))
        self.wv = b.token_weight(f"{name}.wv", (d, d))
        self.bv = b.zeros(f"{name}.bv", (d, 1))
        self.wo = b.token_weight(f"{name}.wo", (d, d))
        self.bo = b.zeros(f"{name}.bo", (d, 1))
        self.ln2_g = b.ones(f"{name}.ln2_w", (d,))
        self.ln2_b = b.zeros(f"{name}.ln2_b", (d,))
        self.w1 = b.token_weight(f"{name}.ffn_w1", (ffn_hidden, d))
        self.b1 = b.zeros(f"{name}.ffn_b1", (ffn_hidden, 1))
        self.w2 = b.token_weight(f"{name}.ffn_w2", (d, ffn_hidden))
        self.b2 = b.zeros(f"{name}.ffn_b2", (d, 1))


def multi_head_attention(z, layer):
    """Scaled dot-product attention over token columns of (B, d, N)."""
    bsz, d, n = z.shape
    heads = (bsz, layer.heads, d // layer.heads, n)
    # q, k, v in this order: backward adds the v, k, q gradients into z
    q = reshape(add(matmul(layer.wq, z), layer.bq), heads)
    k = reshape(add(matmul(layer.wk, z), layer.bk), heads)
    v = reshape(add(matmul(layer.wv, z), layer.bv), heads)
    mixed = attention(q, k, v)
    return add(matmul(layer.wo, reshape(mixed, (bsz, d, n))), layer.bo)


def transformer_layer(z, layer):
    """One encoder layer: residual attention then residual feed-forward."""
    attn = multi_head_attention(layer_norm(z, layer.ln1_g, layer.ln1_b), layer)
    z_mid = add(attn, z)
    h = layer_norm(z_mid, layer.ln2_g, layer.ln2_b)
    h = gelu(add(matmul(layer.w1, h), layer.b1))
    h = add(matmul(layer.w2, h), layer.b2)
    return add(h, z_mid)


class VitBlock:
    """Project a feature map to tokens, run transformer layers, map back."""

    def __init__(self, b, name, k_channels, spatial, cfg):
        d = cfg.embed_dim
        self.k_channels = k_channels
        self.spatial = tuple(int(s) for s in spatial)
        self.n_tokens = int(np.prod(self.spatial))
        self.proj = ConvBlock(b, f"{name}.proj", k_channels, d, 1, 0, plain=True)
        self.pe = b.token_weight(f"{name}.pe", (d, self.n_tokens))
        self.layers = [
            TransformerLayer(b, f"{name}.layer{i}", d, cfg.heads, cfg.ffn_hidden)
            for i in range(cfg.vit_layers)
        ]
        self.back = ConvBlock(b, f"{name}.back", d, k_channels, 1, 0, plain=True)

    def __call__(self, f):
        z = feature_embed(f, self)
        for layer in self.layers:
            z = transformer_layer(z, layer)
        return feature_map_back(z, self, self.spatial)


def feature_embed(f_int, vit):
    """Project to embed_dim, flatten spatial dims to tokens, add positions."""
    n_tok = int(np.prod(f_int.shape[2:]))
    if n_tok != vit.n_tokens:
        raise ValueError(
            f"feature_embed: {n_tok} tokens from spatial {f_int.shape[2:]} "
            f"do not match the positional embedding ({vit.n_tokens} tokens)"
        )
    proj = vit.proj(f_int)
    bsz, d = proj.shape[:2]
    tokens = reshape(proj, (bsz, d, n_tok))
    return add(tokens, vit.pe)


def feature_map_back(z, vit, spatial):
    """Unflatten tokens to the spatial grid and convolve back to K channels."""
    spatial = tuple(spatial)
    if int(np.prod(spatial)) != z.shape[-1]:
        raise ValueError(
            f"feature_map_back: {z.shape[-1]} tokens cannot fill spatial {spatial}"
        )
    bsz, d = z.shape[0], z.shape[1]
    grid = reshape(z, (bsz, d) + spatial)
    return vit.back(grid)


class BiTrUnetModel:
    """Full network; owns the parameter registry (name -> Tensor).

    ``seed=None`` draws no weights: every weight is left uninitialised for
    the caller to overwrite, as ``load_checkpoint`` does.
    """

    def __init__(self, config, seed=0, dtype=np.float32):
        self.config = config
        self.params = {}
        rng = None if seed is None else np.random.default_rng(seed)
        b = _Builder(self.params, rng, dtype)
        cfg = config
        w = cfg.encoder_widths  # [4C, 8C, 16C, 32C, 64C]
        g = cfg.norm_groups
        size = np.asarray(cfg.input_size)

        self.init_block = ConvBlock(b, "init", cfg.in_channels, w[0], 1, g)
        self.enc = []
        self.enc_cbam = []
        for i in range(4):
            self.enc.append(ConvBlock(b, f"e{i + 1}", w[i], w[i + 1], 2, g))
            self.enc_cbam.append(
                CbamBlock(b, f"e{i + 1}.cbam", w[i + 1], cfg.cbam_reduction)
            )
        self.vit_skip = VitBlock(b, "vit_skip", w[3], size // 8, cfg)
        self.vit_bottleneck = VitBlock(b, "vit_bottleneck", w[4], size // 16, cfg)
        self.dec_up = []
        self.dec_fuse = []
        for i, (cin, cout) in enumerate(zip(w[:0:-1], w[-2::-1])):
            self.dec_up.append(UpBlock(b, f"d{4 - i}.up", cin, cout, g))
            self.dec_fuse.append(ConvBlock(b, f"d{4 - i}.fuse", 2 * cout, cout, 1, g))
        self.final_w = b.conv_weight("final.w", (cfg.num_classes, w[0], 3, 3, 3))
        self.final_b = b.zeros("final.b", (cfg.num_classes,))

    def forward(self, x):
        """Class scores (N, num_classes, H, W, D) for input (N, C, H, W, D)."""
        cfg = self.config
        if x.ndim != 5 or x.shape[1] != cfg.in_channels:
            raise ValueError(
                f"forward: expected (N, {cfg.in_channels}, H, W, D), got {x.shape}"
            )
        for ax in (2, 3, 4):
            if x.shape[ax] % 16:
                raise ValueError(
                    f"forward: spatial axis {ax} size {x.shape[ax]} "
                    f"is not divisible by 16"
                )
        # [init, e1, e2, e3, e4], e3 then replaced by its transformer's
        # output; the decoder pops each map as it reads it, so no map
        # outlives its last reader
        skips = [self.init_block(x)]
        for stage, cbam in zip(self.enc, self.enc_cbam):
            skips.append(cbam_apply(stage(skips[-1]), cbam))
        y = self.vit_bottleneck(skips.pop())
        skips.append(self.vit_skip(skips.pop()))
        for up, fuse in zip(self.dec_up, self.dec_fuse):
            y = fuse(concat([up(y), skips.pop()], axis=1))
        return conv3d(y, self.final_w, self.final_b)

    def __call__(self, x):
        return self.forward(x)

    def zero_grads(self):
        for t in self.params.values():
            t.zero_grad()

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype


def parameter_count(model):
    """Total number of scalar parameters."""
    return sum(t.size for t in model.params.values())
