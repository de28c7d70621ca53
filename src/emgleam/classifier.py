"""Small convolutional classifier built from first principles on numpy.

The stack is the classic small-CNN recipe adapted to the reconstructed
crop sizes: conv 5x5 -> pool 2x2 -> ReLU, twice, then three dense layers
with ReLU between them (3x3 convolutions on crops too small for 5x5),
trained with minibatch Adam on softmax cross-entropy.  Max and ReLU
commute, so pooling first gives the map of ReLU-then-pool with a quarter
of the ReLU work; backward can move only the sign of an exact zero.
Forward, backward and the optimizer are implemented here directly; a
finite-difference gradient check validates the backward pass.

Between the input check and the flatten, activations are batch-innermost
(C, H, W, N) maps, so no convolution makes a transposed copy, forward or
backward.  A training step computes only gradients that are read: the
first convolution's backward stops at its weights and bias, since nothing
reads the gradient of the input crops.  Inference
(``CnnModel.logits``) runs each layer's ``infer``, the same arithmetic as
``forward`` without the records only backward reads: no patch matrix, ReLU
mask or pooling index outlives its layer.

Flatten sizes per standard input (channels 6/16, dense 120/84):
31x21 -> 128, 31x20 -> 128, 45x21 -> 256.

Training runs in float32 with a fixed sample order per seed; gradient
checks run in float64.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DivergenceError, ValidationError
from .util import dump_json, read_record

_MAGIC = b"EMGL"
_FORMAT_VERSION = 1
# Adam's moment decay rates and denominator guard (Kingma & Ba defaults)
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
#: crops per forward pass at inference; bounds the conv workspace to that of
#: a training step at the default batch size, so scoring a set never needs
#: more memory than training on it.  Logit bits hold per chunking only: a
#: GEMM's edge columns round their own way (~1e-6 moves across batches)
INFER_BATCH = 256
#: patch-matrix columns per conv GEMM block (see _Conv), rounded down to
#: whole output rows, at least one
_CONV_BLOCK = 4096
# the backward records a training step leaves on its layers, dropped when
# ``train`` returns: _Conv's patch matrix, _Relu's mask, _MaxPool2's
# first-maximum index, _Dense's input
_RECORDS = ("_cols", "_mask", "_first", "_x")
# grad_check: coordinates probed and the finite-difference step
_CHECK_COORDS = 200
_CHECK_STEP = 1e-4


@dataclass(frozen=True)
class CnnSpec:
    input_hw: tuple[int, int]
    n_classes: int
    conv_channels: tuple[int, int] = (6, 16)
    fc_sizes: tuple[int, int] = (120, 84)
    kernel: int = field(init=False)  # 5, or 3 where two 5x5 conv+pool stages do not fit

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValidationError("need at least two classes")
        if len(self.conv_channels) != 2 or len(self.fc_sizes) != 2:
            raise ValidationError(f"need two conv channel counts and two dense sizes, got "
                                  f"{list(self.conv_channels)} and {list(self.fc_sizes)}")
        if min(self.conv_channels) < 1 or min(self.fc_sizes) < 1:
            raise ValidationError("zero-sized layer")
        for kernel in (5, 3):
            h, w = self.input_hw
            for _ in range(2):  # a stage that leaves no pixel leaves every later size < 1
                h, w = (h - kernel + 1) // 2, (w - kernel + 1) // 2
            if h >= 1 and w >= 1:
                break
        else:
            raise ValidationError(f"input {self.input_hw} too small for two 3x3 conv+pool stages")
        object.__setattr__(self, "kernel", kernel)
        # flattened length of the last pooled map: an attribute, not a field,
        # so specs compare and serialise as before
        object.__setattr__(self, "flatten_size", self.conv_channels[1] * h * w)

    @classmethod
    def from_dict(cls, d: dict) -> "CnnSpec":
        spec = cls(
            input_hw=tuple(d["input_hw"]),
            n_classes=int(d["n_classes"]),
            conv_channels=tuple(d["conv_channels"]),
            fc_sizes=tuple(d["fc_sizes"]),
        )
        if int(d.get("kernel", spec.kernel)) != spec.kernel:  # read_record names the file
            raise ValueError(f"stored kernel {d['kernel']} is not input {spec.input_hw}'s {spec.kernel}")
        return spec


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-probabilities of a (batch, classes) logit array."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class _Conv:
    """Valid kxk convolution as an im2col matrix product on (C, H, W, N) maps.

    The (C*k*k, OH*OW*N) patch matrix (rows in (c, u, v) order, columns in
    (y, x, n) order) is a copy of a strided window view of the input in
    runs of OW*N values; it serves the weight gradient too.  Copy and
    product run in blocks of whole output rows (~_CONV_BLOCK columns) that
    stay in cache: the digit conv1's product takes ~1.9x as long in one
    piece.  Rows split only where OW*N is a multiple of 16, as OpenBLAS
    rounds a product's last columns past a multiple of 16 on another path.
    The (F, OH*OW*N) product is the output as it stands, and backward reads
    the output gradient as that matrix again.  ``param_grads`` stops at the
    weight and bias gradients, reduced over the columns in (y, x, n) order,
    the weights' as (cols @ g.T).T (faster here than g @ cols.T, same
    bits): the first layer's input is the crop, whose gradient nothing reads.
    ``backward`` goes on to the input gradient: it scatters the column
    gradient back with one k*k loop into the (C, H, W, N) buffer it
    returns, so the adds run over long contiguous rows and each input
    element sums its (u, v) terms in row-major order: another order
    changes the float32 sums and the trained model bytes.
    """

    def __init__(self, c_in: int, c_out: int, k: int, dtype):
        self.w = np.zeros((c_out, c_in, k, k), dtype=dtype)
        self.b = np.zeros(c_out, dtype=dtype)
        self.k = k

    params = property(lambda self: [self.w, self.b])
    grads = property(lambda self: [self.gw, self.gb])
    fan_in = property(lambda self: self.w.shape[1] * self.k * self.k)

    def _apply(self, x):
        """The output and the patch matrix it was computed from."""
        c, h, w, n = x.shape
        k, f = self.k, self.w.shape[0]
        oh, ow = h - k + 1, w - k + 1
        # (C, k, k, OH, OW, N)
        windows = sliding_window_view(x, (k, k), axis=(1, 2)).transpose(0, 4, 5, 1, 2, 3)
        cols = np.empty((c * k * k, oh, ow * n), dtype=x.dtype)
        out = np.empty((f, oh, ow * n), dtype=x.dtype)
        rows = max(_CONV_BLOCK // (ow * n), 1) if (ow * n) % 16 == 0 else oh
        wm = self.w.reshape(f, -1)
        for y in range(0, oh, rows):
            block = cols[:, y : y + rows]
            block.reshape(c, k, k, -1, ow, n)[...] = windows[:, :, :, y : y + rows]
            np.matmul(wm, block.reshape(c * k * k, -1), out=out[:, y : y + rows].reshape(f, -1))
        out += self.b[:, None, None]
        return out.reshape(f, oh, ow, n), cols.reshape(c * k * k, -1)

    def infer(self, x):
        return self._apply(x)[0]

    def forward(self, x):
        self._x_shape = x.shape
        self._cols = None  # the last step's patch matrix goes before this one is built
        out, self._cols = self._apply(x)
        return out

    def param_grads(self, g):
        gm = g.reshape(g.shape[0], -1)
        self.gw = (self._cols @ gm.T).T.reshape(self.w.shape)
        self.gb = gm.sum(axis=1)

    def backward(self, g):
        self.param_grads(g)
        f, oh, ow, n = g.shape
        c, k = self._x_shape[0], self.k
        dcols = (self.w.reshape(f, -1).T @ g.reshape(f, -1)).reshape(c, k, k, oh, ow, n)
        dx = np.zeros(self._x_shape, dtype=g.dtype)
        for u in range(k):
            for v in range(k):
                dx[:, u : u + oh, v : v + ow] += dcols[:, u, v]
        return dx


class _MaxPool2:
    """2x2 max pooling, stride 2, on (C, H, W, N) maps; an odd last row or
    column is dropped.

    The output is the elementwise maximum of the four quadrant views of the
    2x2 blocks, taken in row-major order.  The backward record is one byte
    per output: the index of the block's first maximum, so a tied block
    sends its gradient to the first of its maxima.  Backward copies the
    gradient's bits into that position and leaves +0.0 elsewhere.
    """

    params = property(lambda self: [])
    grads = property(lambda self: [])

    @staticmethod
    def _quadrants(a, h2, w2):
        return [a[:, i : 2 * h2 : 2, j : 2 * w2 : 2] for i in (0, 1) for j in (0, 1)]

    def infer(self, x):
        q0, q1, q2, q3 = self._quadrants(x, x.shape[1] // 2, x.shape[2] // 2)
        out = np.maximum(q0, q1)
        np.maximum(out, q2, out=out)
        return np.maximum(out, q3, out=out)

    def forward(self, x):
        self._in_shape = x.shape
        out = self.infer(x)
        q0, q1, q2, _ = self._quadrants(x, x.shape[1] // 2, x.shape[2] // 2)
        # the first maximum's index counts the quadrants before it that miss
        miss = q0 != out
        self._first = miss.astype(np.uint8)
        for q in (q1, q2):
            miss &= q != out
            self._first += miss
        return out

    def backward(self, g):
        gx = np.zeros(self._in_shape, dtype=g.dtype)
        bits = np.dtype(f"u{g.itemsize}")  # integer multiply by 0/1 keeps -0.0 and +0.0 apart
        for idx, quad in enumerate(self._quadrants(gx, *g.shape[1:3])):
            np.multiply(g.view(bits), self._first == idx, out=quad.view(bits))
        return gx


class _Relu:
    params = property(lambda self: [])
    grads = property(lambda self: [])

    @staticmethod
    def infer(x):
        return np.multiply(x, x > 0, out=x)  # x is its layer's fresh output

    def forward(self, x):
        self._mask = x > 0
        return np.multiply(x, self._mask, out=x)

    def backward(self, g):
        return np.multiply(g, self._mask, out=g)  # g too: a conv's, flatten's or dense layer's


class _Flatten:
    """(C, h, w, N) maps to contiguous (N, C*h*w) rows in (c, y, x) order."""

    params = property(lambda self: [])
    grads = property(lambda self: [])

    @staticmethod
    def infer(x):
        return np.ascontiguousarray(x.reshape(-1, x.shape[3]).T)

    def forward(self, x):
        self._shape = x.shape
        return self.infer(x)

    def backward(self, g):
        return g.T.reshape(self._shape)


class _Dense:
    def __init__(self, n_in: int, n_out: int, dtype):
        self.w = np.zeros((n_in, n_out), dtype=dtype)
        self.b = np.zeros(n_out, dtype=dtype)

    params = property(lambda self: [self.w, self.b])
    grads = property(lambda self: [self.gw, self.gb])
    fan_in = property(lambda self: self.w.shape[0])

    def infer(self, x):
        return x @ self.w + self.b

    def forward(self, x):
        self._x = x
        return self.infer(x)

    def backward(self, g):
        self.gw = self._x.T @ g
        self.gb = g.sum(axis=0)
        return g @ self.w.T


class CnnModel:
    """Layer stack with a flat parameter-vector view."""

    def __init__(self, spec: CnnSpec, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.meta: dict = {}
        k = spec.kernel
        c1, c2 = spec.conv_channels
        f1, f2 = spec.fc_sizes
        self.layers = [
            _Conv(1, c1, k, self.dtype),
            _MaxPool2(),
            _Relu(),
            _Conv(c1, c2, k, self.dtype),
            _MaxPool2(),
            _Relu(),
            _Flatten(),
            _Dense(spec.flatten_size, f1, self.dtype),
            _Relu(),
            _Dense(f1, f2, self.dtype),
            _Relu(),
            _Dense(f2, spec.n_classes, self.dtype),
        ]
        self.n_params = sum(p.size for lay in self.layers for p in lay.params)

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 2:
            x = x[None]
        if x.ndim != 3 or x.shape[1:] != tuple(self.spec.input_hw):
            raise ValidationError(f"batch shape {x.shape} does not match input {self.spec.input_hw}")
        if not len(x):
            raise ValidationError("empty batch")
        return np.ascontiguousarray(x.transpose(1, 2, 0), dtype=self.dtype)[None]  # (1, H, W, N)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self._check_input(x)
        for lay in self.layers:
            out = lay.forward(out)
        return out

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Mean cross-entropy over the batch; returns (loss, flat grads, logits)."""
        logits = self.forward(x)
        y = np.asarray(y)
        n = logits.shape[0]
        logp = log_softmax(logits)
        loss = float(-logp[np.arange(n), y].mean())
        g = np.exp(logp)
        g[np.arange(n), y] -= 1.0
        g = (g / n).astype(self.dtype)
        for lay in reversed(self.layers[1:]):
            g = lay.backward(g)
        self.layers[0].param_grads(g)  # the crops' own gradient is never read
        grads = np.concatenate([g.ravel() for lay in self.layers for g in lay.grads])
        return loss, grads, logits

    def flat_params(self) -> np.ndarray:
        return np.concatenate([p.ravel() for lay in self.layers for p in lay.params])

    def set_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=self.dtype)
        if flat.size != self.n_params:
            raise ValidationError(f"expected {self.n_params} parameters, got {flat.size}")
        if not np.all(np.isfinite(flat)):
            raise ValidationError("non-finite parameters")
        pos = 0
        for lay in self.layers:
            for p in lay.params:
                p[...] = flat[pos : pos + p.size].reshape(p.shape)
                pos += p.size

    def _infer(self, x: np.ndarray) -> np.ndarray:
        out = self._check_input(x)
        for lay in self.layers:
            out = lay.infer(out)
        return out

    def logits(self, x: np.ndarray) -> np.ndarray:
        """``forward``'s logits, INFER_BATCH crops at a time, through the
        layers' record-free ``infer``: the bits of ``forward`` on each chunk,
        not of one pass over the whole batch."""
        x = np.asarray(x)
        x = x[None] if x.ndim == 2 else x
        # at least one chunk, so that an empty batch meets the input check
        return np.concatenate([self._infer(x[i : i + INFER_BATCH])
                               for i in range(0, max(len(x), 1), INFER_BATCH)])

    def softmax(self, x: np.ndarray) -> np.ndarray:
        return np.exp(log_softmax(self.logits(x)))

    def predict_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Argmax classes and softmax rows; ties break toward the lower index."""
        probs = self.softmax(x)
        return probs.argmax(axis=1), probs


def init_model(spec: CnnSpec, seed: int = 0, dtype=np.float32) -> CnnModel:
    """Fan-in-scaled uniform weights (limit sqrt(6/fan_in)), zero biases."""
    model = CnnModel(spec, dtype)
    rng = np.random.default_rng(seed)
    for lay in model.layers:
        if isinstance(lay, (_Conv, _Dense)):
            limit = np.sqrt(6.0 / lay.fan_in)
            lay.w[...] = rng.uniform(-limit, limit, size=lay.w.shape).astype(model.dtype)
            lay.b[...] = 0.0
    return model


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 100
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")
        if not 0 <= self.learning_rate < float("inf"):
            raise ValidationError(f"learning rate {self.learning_rate} must be finite and non-negative")


@dataclass
class TrainResult:
    model: CnnModel
    history: list[dict]
    best_epoch: int
    best_val_accuracy: float

    def save_history(self, path) -> None:
        dump_json(path, {
            "history": self.history,
            "best_epoch": self.best_epoch,
            "best_val_accuracy": self.best_val_accuracy,
        })


def _check_counts(x, y, what: str) -> None:
    if len(x) != len(y):
        raise ValidationError(f"{what}: {len(x)} images but {len(y)} labels")


def evaluate(model: CnnModel, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy and accuracy over a labeled set."""
    y = np.asarray(y)
    _check_counts(x, y, "evaluated set")
    logits = model.logits(x)
    loss = float(-log_softmax(logits)[np.arange(len(y)), y].sum())
    return loss / len(y), int((logits.argmax(axis=1) == y).sum()) / len(y)


def train(model: CnnModel, train_set, val_set, config: TrainConfig) -> TrainResult:
    """Seeded-shuffle minibatch Adam; keeps the best-validation checkpoint.

    train_set and val_set are (images, labels) pairs.  The returned model
    carries the epoch with the highest validation accuracy (first such
    epoch on ties) and meta["val_accuracy"] records it.

    Each step's layers keep its backward records (patch matrices, ReLU
    masks, pooling indices, dense inputs: 18.1 MB for the digit spec at
    batch 256, 17.3 MB of it the two patch matrices) until the next step
    replaces them; they are dropped once, when the loop ends, so the
    returned model holds its parameters only.  Dropping them at every step
    instead lets the heap shrink and regrow each step, which slows training.

    Adam updates m, v and the float64 parameters in place through three
    work buffers (cast gradient, step, denominator), in the operation order
    of the textbook expressions, so each value rounds as they would.
    """
    x_train, y_train = train_set
    x_val, y_val = val_set
    if len(x_train) == 0 or len(x_val) == 0:
        raise ValidationError("empty training or validation set")
    _check_counts(x_train, y_train, "training set")
    _check_counts(x_val, y_val, "validation set")
    x_train = np.asarray(x_train, dtype=model.dtype)
    y_train = np.asarray(y_train, dtype=np.int64)
    x_val = np.asarray(x_val, dtype=model.dtype)
    y_val = np.asarray(y_val, dtype=np.int64)
    for labels in (y_train, y_val):
        bad = labels[(labels < 0) | (labels >= model.spec.n_classes)]
        if bad.size:
            raise ValidationError(f"label {bad[0]} outside the model's {model.spec.n_classes} classes")

    rng = np.random.default_rng(config.seed)
    params = model.flat_params().astype(np.float64)
    m, v, g, step, den = (np.zeros_like(params) for _ in range(5))  # g, step, den: work buffers
    t = 0
    best_params = params.copy()
    best_key = (-1.0, -np.inf)  # (val accuracy, -train loss)
    best_epoch = -1
    history: list[dict] = []

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(x_train))
        losses = []
        hits = 0
        for i in range(0, len(order), config.batch_size):
            batch = order[i : i + config.batch_size]
            loss, grads, logits = model.loss_and_grads(x_train[batch], y_train[batch])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            losses.append(loss)
            hits += int((logits.argmax(axis=1) == y_train[batch]).sum())
            t += 1
            np.copyto(g, grads)
            m *= _BETA1
            m += np.multiply(g, 1 - _BETA1, out=step)
            v *= _BETA2
            v += np.multiply(np.multiply(g, 1 - _BETA2, out=step), g, out=step)
            np.sqrt(np.divide(v, 1 - _BETA2**t, out=den), out=den)
            den += _EPS  # sqrt(v_hat) + eps
            np.divide(m, 1 - _BETA1**t, out=step)
            step *= config.learning_rate  # lr*m_hat
            params -= np.divide(step, den, out=step)
            model.set_flat_params(params)
        val_loss, val_acc = evaluate(model, x_val, y_val)
        history.append({
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "train_accuracy": hits / len(x_train),
            "val_loss": val_loss,
            "val_accuracy": val_acc,
        })
        # ties in validation accuracy resolve to the lower validation loss
        # (then the earlier epoch): small validation sets saturate their
        # accuracy early, but the loss keeps tracking convergence
        key = (val_acc, -val_loss)
        if key > best_key:
            best_key = key
            best_epoch = epoch
            best_params = params.copy()

    for lay in model.layers:
        for record in _RECORDS:
            vars(lay).pop(record, None)
    model.set_flat_params(best_params)
    model.meta["val_accuracy"] = best_key[0]
    model.meta["best_epoch"] = best_epoch
    return TrainResult(model, history, best_epoch, best_key[0])


@dataclass
class GradCheckReport:
    max_rel_error: float
    n_checked: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(
    spec: CnnSpec,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> GradCheckReport:
    """Analytic gradient vs central finite differences on sampled coordinates.

    Runs in float64.  Specs are kept small (<= 5k parameters) so the
    numeric sweep stays cheap.  Coordinates whose +/-step interval crosses
    a rectifier kink (detected by the one-sided differences disagreeing)
    are resampled: the loss is not differentiable there, so a finite
    difference says nothing about the analytic gradient.
    """
    model = init_model(spec, seed=seed, dtype=np.float64)
    if model.n_params > 5000:
        raise ValidationError(f"grad check wants small specs, got {model.n_params} parameters")
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((2, *spec.input_hw))
    y = rng.integers(0, spec.n_classes, size=2)

    base_loss, analytic, _ = model.loss_and_grads(x, y)
    params = model.flat_params()
    n = min(_CHECK_COORDS, params.size)
    coords = rng.permutation(params.size)

    worst = 0.0
    checked = 0
    for idx in coords:
        if checked >= n:
            break
        saved = params[idx]
        params[idx] = saved + _CHECK_STEP
        model.set_flat_params(params)
        lp, _, _ = model.loss_and_grads(x, y)
        params[idx] = saved - _CHECK_STEP
        model.set_flat_params(params)
        lm, _, _ = model.loss_and_grads(x, y)
        params[idx] = saved
        d_fwd = (lp - base_loss) / _CHECK_STEP
        d_bwd = (base_loss - lm) / _CHECK_STEP
        scale = max(abs(d_fwd), abs(d_bwd), 1e-8)
        if abs(d_fwd - d_bwd) > 0.1 * scale:
            continue  # kink inside the interval; not a valid probe point
        checked += 1
        numeric = (lp - lm) / (2 * _CHECK_STEP)
        denom = max(abs(analytic[idx]), abs(numeric), 1e-8)
        worst = max(worst, float(abs(analytic[idx] - numeric) / denom))
    model.set_flat_params(params)
    return GradCheckReport(max_rel_error=worst, n_checked=int(checked), tolerance=tolerance)


def save_model(model: CnnModel, path) -> None:
    """Binary weight file: magic, format version, spec block, f32 params."""
    spec_block = json.dumps({"spec": asdict(model.spec), "meta": model.meta}, sort_keys=True).encode()
    params = model.flat_params().astype("<f4")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _FORMAT_VERSION))
        fh.write(struct.pack("<I", len(spec_block)))
        fh.write(spec_block)
        fh.write(struct.pack("<Q", params.size))
        fh.write(params.tobytes())


def load_model(path) -> CnnModel:
    """The model save_model wrote; a damaged file is a ValidationError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise ValidationError(f"{path}: not a model file")
    if len(data) < 12 or len(data) < 20 + struct.unpack_from("<I", data, 8)[0]:
        raise ValidationError(f"{path}: truncated header")
    version, spec_len = struct.unpack_from("<II", data, 4)
    if version != _FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported format version {version}")
    (count,) = struct.unpack_from("<Q", data, 12 + spec_len)
    if len(data) < 20 + spec_len + 4 * count:
        raise ValidationError(f"{path}: truncated parameter block")
    with read_record(path, data[12 : 12 + spec_len]) as block:
        model = CnnModel(CnnSpec.from_dict(block["spec"]))
        model.meta = dict(block.get("meta", {}))
    model.set_flat_params(np.frombuffer(data, "<f4", count, offset=20 + spec_len))
    return model
