"""The reference numpy execution backend.

A backend is a plain object exposing the array-op surface that
:mod:`repro.autodiff` (and anything else that wants backend-agnostic
array math) calls instead of touching numpy directly. The numpy backend
is the default and the only one shipped; alternative backends (e.g. a
GPU array library with a numpy-compatible API) register themselves via
:func:`repro.backend.register_backend` and only need to provide this
same surface.

Every method follows numpy semantics exactly — the autodiff engine's
gradient rules are written against them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend.policy import TRAINING_DTYPE

# -- in-place activation kernels ----------------------------------------
# Used by the compiled inference path and the fused Dense+activation
# kernel below. Each kernel owns its argument (works in place) and must
# return the result array. The float64 op sequences mirror the autodiff
# graph ops exactly, which is what gives the unfused compiled path its
# bitwise parity with the graph forward.


def relu_(x: np.ndarray) -> np.ndarray:
    np.maximum(x, 0.0, out=x)
    return x


def leaky_relu_(x: np.ndarray) -> np.ndarray:
    np.multiply(x, np.where(x > 0, x.dtype.type(1.0), x.dtype.type(0.01)), out=x)
    return x


def tanh_(x: np.ndarray) -> np.ndarray:
    np.tanh(x, out=x)
    return x


def sigmoid_(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-clip(x))), the same guarded form as Tensor.sigmoid.
    np.clip(x, -500, 500, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += x.dtype.type(1.0)
    np.reciprocal(x, out=x)
    return x


def softplus_(x: np.ndarray) -> np.ndarray:
    np.logaddexp(x.dtype.type(0.0), x, out=x)
    return x


#: name -> in-place kernel; "linear" is the identity (no kernel).
INPLACE_ACTIVATIONS: dict = {
    "relu": relu_,
    "leaky_relu": leaky_relu_,
    "tanh": tanh_,
    "sigmoid": sigmoid_,
    "softplus": softplus_,
    "linear": None,
}

#: Row-tile size for the fused Dense+activation kernel. Tiling keeps the
#: matmul output resident in cache for the bias/activation passes; on
#: row-independent GEMMs the per-row dot products are unchanged, so the
#: result stays within 1e-12 of the untiled op sequence (bitwise on the
#: BLAS builds we test against).
FUSE_TILE_ROWS = 256


class NumpyBackend:
    """Array ops implemented on numpy ``float64``/``float32`` arrays."""

    name = "numpy"

    #: Compiled-vs-graph parity tolerance this backend guarantees. The
    #: reference backend computes the exact op sequence of the autodiff
    #: graph, so parity is bitwise; a backend that reorders summation
    #: (e.g. a sparse gather kernel) publishes a nonzero atol.
    parity_atol = 0.0

    #: Array type produced by this backend (used for isinstance checks and
    #: type annotations by backend-agnostic callers).
    ndarray = np.ndarray

    float64 = np.dtype(np.float64)
    float32 = np.dtype(np.float32)
    bool_ = np.dtype(bool)

    # -- construction / casting ----------------------------------------
    def asarray(self, value, dtype=None) -> np.ndarray:
        return np.asarray(value, dtype=TRAINING_DTYPE if dtype is None else dtype)

    def as_float(self, value) -> np.ndarray:
        """Cast to the training float dtype (masks -> 0.0/1.0)."""
        return np.asarray(value).astype(TRAINING_DTYPE)

    def as_bool(self, value) -> np.ndarray:
        return np.asarray(value, dtype=bool)

    def zeros_like(self, x) -> np.ndarray:
        return np.zeros_like(x)

    def ones_like(self, x) -> np.ndarray:
        return np.ones_like(x)

    def empty(self, shape, dtype=None) -> np.ndarray:
        return np.empty(shape, dtype=TRAINING_DTYPE if dtype is None else dtype)

    # -- elementwise ----------------------------------------------------
    def exp(self, x) -> np.ndarray:
        return np.exp(x)

    def log(self, x) -> np.ndarray:
        return np.log(x)

    def sqrt(self, x) -> np.ndarray:
        return np.sqrt(x)

    def abs(self, x) -> np.ndarray:
        return np.abs(x)

    def sign(self, x) -> np.ndarray:
        return np.sign(x)

    def tanh(self, x) -> np.ndarray:
        return np.tanh(x)

    def sigmoid(self, x) -> np.ndarray:
        """Numerically-guarded logistic ``1 / (1 + exp(-x))``."""
        return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))

    def softplus(self, x) -> np.ndarray:
        """``log(1 + exp(x))`` via ``logaddexp`` for stability."""
        return np.logaddexp(0.0, x)

    def power(self, x, exponent) -> np.ndarray:
        return np.power(x, exponent)

    def clip(self, x, low, high) -> np.ndarray:
        return np.clip(x, low, high)

    def where(self, condition, a, b) -> np.ndarray:
        return np.where(condition, a, b)

    def maximum(self, a, b) -> np.ndarray:
        return np.maximum(a, b)

    def minimum(self, a, b) -> np.ndarray:
        return np.minimum(a, b)

    # -- linear algebra --------------------------------------------------
    def matmul(self, a, b, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.matmul(a, b, out=out)

    def outer(self, a, b) -> np.ndarray:
        return np.outer(a, b)

    # -- reductions ------------------------------------------------------
    def amax(self, x, axis=None, keepdims: bool = False) -> np.ndarray:
        return np.max(x, axis=axis, keepdims=keepdims)

    def amin(self, x, axis=None, keepdims: bool = False) -> np.ndarray:
        return np.min(x, axis=axis, keepdims=keepdims)

    def prod(self, values) -> float:
        return np.prod(values)

    # -- shape manipulation ---------------------------------------------
    def expand_dims(self, x, axis) -> np.ndarray:
        return np.expand_dims(x, axis=axis)

    def squeeze(self, x, axis) -> np.ndarray:
        return np.squeeze(x, axis=axis)

    def broadcast_to(self, x, shape) -> np.ndarray:
        return np.broadcast_to(x, shape)

    def concatenate(self, arrays, axis: int = 0) -> np.ndarray:
        return np.concatenate(arrays, axis=axis)

    def stack(self, arrays, axis: int = 0) -> np.ndarray:
        return np.stack(arrays, axis=axis)

    def take(self, x, index, axis) -> np.ndarray:
        return np.take(x, index, axis=axis)

    # -- scatter ---------------------------------------------------------
    def index_add(self, target, index, values) -> None:
        """In-place unbuffered scatter-add: ``target[index] += values``."""
        np.add.at(target, index, values)

    # -- fused serving kernels -------------------------------------------
    def fused_dense_act(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        activation: Optional[str],
        out: np.ndarray,
    ) -> np.ndarray:
        """One Dense+activation step: ``act(x @ weight + bias)`` into ``out``.

        The fused serving kernel of the compiled inference plan: matmul,
        bias add, and the nonlinearity execute per row tile so the matmul
        output is still cache-resident when the elementwise passes touch
        it — the memory-traffic saving that matters on the BLAS-bound
        autoencoder shapes. ``activation`` is a name from
        :data:`INPLACE_ACTIVATIONS` (``None``/"linear" = identity);
        backends that override this method may substitute their own
        fused implementation, which is why the compiled plan dispatches
        it through :mod:`repro.backend.ops`.

        Numeric contract: each output row is the same dot product the
        unfused sequence computes, so results agree with the unfused
        path to atol 1e-12 (bitwise on BLAS builds whose GEMM is
        row-blocked, which the fused parity suite asserts with a
        tolerance rather than relying on).
        """
        kernel = INPLACE_ACTIVATIONS[activation] if activation is not None else None
        n = x.shape[0]
        if n <= 2 * FUSE_TILE_ROWS:
            np.matmul(x, weight, out=out)
            if bias is not None:
                out += bias
            if kernel is not None:
                kernel(out)
            return out
        for start in range(0, n, FUSE_TILE_ROWS):
            tile = out[start : start + FUSE_TILE_ROWS]
            np.matmul(x[start : start + FUSE_TILE_ROWS], weight, out=tile)
            if bias is not None:
                tile += bias
            if kernel is not None:
                kernel(tile)
        return out
