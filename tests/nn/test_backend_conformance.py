"""Backend conformance: every registered backend honours the plan contracts.

The compiled-vs-graph parity suite, parametrized over the backend
registry rather than pinned to the reference backend. Each backend
publishes its tolerance as ``parity_atol`` (0.0 = bitwise; a backend
that reorders partial sums publishes a nonzero atol), and the suite
asserts exactly that contract: dense random inputs must be bitwise under
every backend; one-hot-regime inputs are allowed to drift up to the
published atol. The registry test switches to a test-local second
backend, so ``use_backend`` switching stays covered with one shipped
backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, no_grad
from repro.backend import (
    NumpyBackend,
    active_backend,
    backend_names,
    get_backend,
    register_backend,
    use_backend,
)
from repro.nn import (
    compile_inference,
    force_graph_forward,
    forward_in_batches,
)
from repro.nn.layers import mlp

#: Snapshot of the registry at collection time — the shipped backends,
#: before any test registers throwaway stubs.
BACKENDS = backend_names()

ACTIVATIONS = ["relu", "leaky_relu", "tanh", "sigmoid", "softplus", "linear"]

architectures = st.builds(
    lambda sizes, act, out_act, seed: (sizes, act, out_act, seed),
    st.lists(st.integers(1, 8), min_size=2, max_size=4),
    st.sampled_from(ACTIVATIONS),
    st.sampled_from(ACTIVATIONS),
    st.integers(0, 2**31 - 1),
)


def graph_forward(module, X):
    with no_grad():
        return module(Tensor(X)).data


def make_onehot_batch(rng, rows, n_dense=20, blocks=(60, 30)):
    """A batch in the SQB one-hot regime: dense prefix + one-hot blocks."""
    d = n_dense + sum(blocks)
    X = np.zeros((rows, d))
    X[:, :n_dense] = rng.normal(size=(rows, n_dense))
    off = n_dense
    for b in blocks:
        X[np.arange(rows), off + rng.integers(0, b, size=rows)] = 1.0
        off += b
    return X


class _SecondBackend(NumpyBackend):
    """Test-local second backend: the reference ops under another name."""

    name = "numpy-second"


def test_registry_switches_between_registered_backends():
    assert "numpy" in BACKENDS
    assert get_backend("numpy").parity_atol == 0.0
    numpy_backend = active_backend()
    second = _SecondBackend()
    register_backend(_SecondBackend.name, second)
    rng = np.random.default_rng(3)
    model = mlp([6, 8, 3], rng=rng)
    X = rng.normal(size=(5, 6))
    expected = compile_inference(model)(X)
    with use_backend(_SecondBackend.name) as active:
        assert active is second and active_backend() is second
        got = compile_inference(model)(X)
    assert active_backend() is numpy_backend
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(arch=architectures, rows=st.integers(1, 17))
def test_compiled_matches_graph_dense_inputs(backend, arch, rows):
    """Dense inputs: bitwise under every backend (no sparse path fires)."""
    sizes, act, out_act, seed = arch
    rng = np.random.default_rng(seed)
    model = mlp(sizes, activation=act, output_activation=out_act, rng=rng)
    X = rng.normal(size=(rows, sizes[0]))
    with use_backend(backend):
        expected = graph_forward(model, X)
        got = compile_inference(model)(X)
        unfused = compile_inference(model, fused=False)(X)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(unfused, expected)
    np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=15, deadline=None)
@given(arch=architectures, rows=st.integers(0, 40), batch_size=st.integers(1, 16))
def test_forward_in_batches_parity(backend, arch, rows, batch_size):
    sizes, act, out_act, seed = arch
    rng = np.random.default_rng(seed)
    model = mlp(sizes, activation=act, output_activation=out_act, rng=rng)
    X = rng.normal(size=(rows, sizes[0]))
    with use_backend(backend):
        compiled = forward_in_batches(model, X, batch_size=batch_size)
        with force_graph_forward():
            graphed = forward_in_batches(model, X, batch_size=batch_size)
    np.testing.assert_array_equal(compiled, graphed)
    assert compiled.shape == (rows, sizes[-1])


@pytest.mark.parametrize("backend", BACKENDS)
def test_onehot_inputs_within_published_parity_atol(backend):
    """One-hot batches: each backend stays inside its ``parity_atol``."""
    rng = np.random.default_rng(17)
    n_dense, blocks = 20, (60, 30)
    d = n_dense + sum(blocks)
    model = mlp([d, 64, 32, 5], activation="relu", rng=rng)
    X = make_onehot_batch(rng, rows=512, n_dense=n_dense, blocks=blocks)
    expected = graph_forward(model, X)
    impl = get_backend(backend)
    with use_backend(backend):
        got = compile_inference(model)(X)
    # The fused plan's own 1e-12 budget stacks on the backend's atol.
    np.testing.assert_allclose(
        got, expected, atol=impl.parity_atol + 1e-12, rtol=0
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_float32_inference_dtype_supported(backend):
    rng = np.random.default_rng(31)
    model = mlp([6, 8, 3], rng=rng)
    X = rng.normal(size=(9, 6))
    expected = graph_forward(model, X)
    with use_backend(backend):
        got = compile_inference(model, dtype=np.float32)(X)
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-5)
