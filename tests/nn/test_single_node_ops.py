"""Single-node training ops against the op chains they replace.

``Tensor.dense`` and the single-node losses of :mod:`repro.nn.losses` promise
values and gradients bitwise equal to the unfused chains of ``Tensor`` ops.
The chains are kept here as references: the property tests compare forward
values and every gradient with ``np.array_equal``, the finite-difference
checks pin the math itself, and a smoke-scale ``TargAD`` fit with the
references patched in shows the training pipeline unchanged end to end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autodiff import Tensor, check_gradients
from repro.autodiff.tensor import _unbroadcast
from repro.backend import ops as B
from repro.core.config import TargADConfig
from repro.core.losses import (
    cross_entropy_term,
    entropy_regularizer_term,
    outlier_exposure_term,
)
from repro.core.model import TargAD
from repro.core.pseudo_labels import ood_pseudo_label
from repro.nn.layers import Activation, Dense, Sequential, mlp
from repro.nn.losses import negative_entropy, reconstruction_errors, soft_cross_entropy


# ----------------------------------------------------------------------
# Unfused references: the op chains the single-node forms replace
# ----------------------------------------------------------------------
def unfused_dense(x, weight, bias=None, relu=False):
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out.relu() if relu else out


def unfused_dense_forward(self, x):
    return unfused_dense(x, self.weight, self.bias)


def unfused_sequential_forward(self, x):
    for module in self.modules:
        x = module(x)
    return x


def unfused_soft_cross_entropy(logits, soft_targets, weights=None):
    soft_targets = np.asarray(soft_targets, dtype=np.float64)
    log_probs = logits.log_softmax(axis=1)
    per_instance = -(log_probs * Tensor(soft_targets)).sum(axis=1)
    if weights is not None:
        per_instance = per_instance * Tensor(np.asarray(weights, dtype=np.float64))
    return per_instance.mean()


def unfused_negative_entropy(logits):
    log_probs = logits.log_softmax(axis=1)
    probs = log_probs.exp()
    return (probs * log_probs).sum(axis=1).mean()


def unfused_reconstruction_errors(pred, target):
    diff = pred - target
    return (diff * diff).sum(axis=1)


def unfused_classifier_loss(
    network, X_labeled, targets_labeled, X_normal, targets_normal,
    X_candidates, ood_targets, weights,
    lambda1=0.1, lambda2=1.0, use_oe=True, use_re=True,
):
    """Eq. (8) with one network forward per pool."""
    logits_labeled = network(Tensor(X_labeled)) if len(X_labeled) else None
    logits_normal = network(Tensor(X_normal)) if len(X_normal) else None
    loss = cross_entropy_term(logits_labeled, targets_labeled, logits_normal, targets_normal)
    if use_oe and lambda1 > 0 and len(X_candidates):
        logits_candidates = network(Tensor(X_candidates))
        loss = loss + lambda1 * outlier_exposure_term(logits_candidates, ood_targets, weights)
    if use_re and lambda2 > 0:
        loss = loss + lambda2 * entropy_regularizer_term(logits_labeled, logits_normal)
    return loss


def copying_accumulate(self, grad, owned=False):
    """``Tensor._accumulate`` copying every first gradient."""
    grad = _unbroadcast(B.asarray(grad), self.data.shape)
    if self.grad is None:
        self.grad = grad.copy()
    else:
        self.grad = self.grad + grad


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=64)


def matrix(rows, cols):
    return arrays(np.float64, (rows, cols), elements=finite)


@st.composite
def dense_case(draw):
    n = draw(st.integers(1, 6))
    d_in = draw(st.integers(1, 5))
    d_out = draw(st.integers(1, 5))
    return {
        "xs": [draw(matrix(n, d_in)) for _ in range(draw(st.integers(1, 3)))],
        "w": draw(matrix(d_in, d_out)),
        "b": draw(arrays(np.float64, (d_out,), elements=finite)),
        "g": draw(matrix(n, d_out)),
    }


@st.composite
def logits_case(draw):
    """Logits for ``m`` target and ``k`` cluster dims, with one-hot and OE targets."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    logits = draw(matrix(n, m + k))
    classes = draw(arrays(np.int64, (n,), elements=st.integers(0, m + k - 1)))
    one_hot = np.zeros((n, m + k))
    one_hot[np.arange(n), classes] = 1.0
    oe = np.tile(ood_pseudo_label(m, k), (n, 1))
    weights = draw(arrays(np.float64, (n,), elements=st.floats(0.0, 1.0, width=64)))
    return logits, one_hot, oe, weights


def grads_after(loss, tensors):
    loss.backward()
    return [t.grad for t in tensors]


def assert_bitwise(fused, unfused):
    for got, want in zip(fused, unfused):
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got, want), np.max(np.abs(got - want))


# ----------------------------------------------------------------------
# Bitwise parity with the unfused chains
# ----------------------------------------------------------------------
class TestBitwiseParity:
    @settings(max_examples=60, deadline=None)
    @given(dense_case(), st.booleans(), st.booleans(), st.booleans())
    def test_dense_shared_by_several_subgraphs(self, case, relu, with_bias, x_grad):
        # One weight and bias feed every sub-graph, as in the SAD
        # autoencoder's batch and labeled passes.
        def run(dense):
            w = Tensor(case["w"], requires_grad=True)
            b = Tensor(case["b"], requires_grad=True) if with_bias else None
            xs = [Tensor(x, requires_grad=x_grad) for x in case["xs"]]
            loss = None
            for i, x in enumerate(xs):
                term = (dense(x, w, b, relu) * Tensor(case["g"] * (i + 1))).sum()
                loss = term if loss is None else loss + term
            grads = grads_after(loss, [w, b] + xs if with_bias else [w] + xs)
            return [loss.data] + grads

        assert_bitwise(run(Tensor.dense), run(unfused_dense))

    @settings(max_examples=60, deadline=None)
    @given(logits_case(), st.booleans())
    def test_soft_cross_entropy(self, case, weighted):
        logits, one_hot, oe, weights = case
        w = weights if weighted else None

        def run(loss_fn):
            a = Tensor(logits, requires_grad=True)
            b = Tensor(logits[::-1].copy(), requires_grad=True)
            loss = loss_fn(a, one_hot) + 0.1 * loss_fn(b, oe, w)
            return [loss.data] + grads_after(loss, [a, b])

        assert_bitwise(run(soft_cross_entropy), run(unfused_soft_cross_entropy))

    @settings(max_examples=60, deadline=None)
    @given(logits_case())
    def test_negative_entropy(self, case):
        logits = case[0]

        def run(loss_fn):
            a = Tensor(logits, requires_grad=True)
            loss = loss_fn(a) * 0.25 + loss_fn(a * 2.0) * 0.75
            return [loss.data] + grads_after(loss, [a])

        assert_bitwise(run(negative_entropy), run(unfused_negative_entropy))

    @settings(max_examples=60, deadline=None)
    @given(dense_case())
    def test_reconstruction_errors_with_inverse_penalty(self, case):
        # The Eq. 1 shape: mean error on a batch plus the inverse-error
        # penalty on a second pass through the same weights.
        x = case["xs"][0]

        def run(errors_fn, dense):
            w = Tensor(case["w"], requires_grad=True)
            back = Tensor(case["w"].T.copy(), requires_grad=True)
            batch = Tensor(x)
            recon = dense(dense(batch, w, None, True), back)
            loss = errors_fn(recon, batch).mean()
            other = Tensor(x[::-1] * 0.5)
            inverse = (errors_fn(dense(dense(other, w, None, True), back), other) + 1e-6) ** -1.0
            loss = loss + inverse.mean()
            return [loss.data] + grads_after(loss, [w, back])

        assert_bitwise(
            run(reconstruction_errors, Tensor.dense),
            run(unfused_reconstruction_errors, unfused_dense),
        )

    @settings(max_examples=30, deadline=None)
    @given(logits_case(), st.integers(0, 2**31 - 1))
    def test_classifier_head_end_to_end(self, case, seed):
        # Dense+ReLU stack into the Eq. 3/6/7 terms: every gradient of a
        # classifier step, fused against unfused.
        logits, one_hot, oe, weights = case
        n, c = logits.shape
        net = mlp([c, 5, 4, c], activation="relu", rng=np.random.default_rng(seed))

        def run(forward, ce, ne):
            net.zero_grad()
            out = forward(net, Tensor(logits))
            loss = ce(out, one_hot) + 0.1 * ce(out, oe, weights) + ne(out)
            loss.backward()
            return [loss.data] + [p.grad for p in net.parameters()]

        fused = run(Sequential.forward, soft_cross_entropy, negative_entropy)
        unfused = run(unfused_sequential_forward, unfused_soft_cross_entropy,
                      unfused_negative_entropy)
        assert_bitwise(fused, unfused)

    def test_sequential_fuses_only_dense_relu_pairs(self):
        rng = np.random.default_rng(0)
        net = Sequential(Dense(3, 4, rng=rng), Activation("relu"),
                         Dense(4, 4, rng=rng), Activation("tanh"), Dense(4, 2, rng=rng))
        x = Tensor(rng.standard_normal((5, 3)))
        out = net(x)
        # dense(relu) -> dense -> tanh -> dense: four graph nodes.
        nodes, frontier = 0, [out]
        while frontier:
            node = frontier.pop()
            if node._backward is not None:
                nodes += 1
                frontier.extend(node._parents)
        assert nodes == 4
        assert np.array_equal(out.data, unfused_sequential_forward(net, x).data)


# ----------------------------------------------------------------------
# Finite-difference checks of the single-node ops
# ----------------------------------------------------------------------
class TestGradientChecks:
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_dense(self, n, relu, with_bias):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 3))
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        g = Tensor(rng.standard_normal((n, 4)))

        def loss(out):
            return (out * g).sum()

        if with_bias:
            # x requires a gradient here ...
            check_gradients(lambda x_, w_, b_: loss(Tensor.dense(x_, w_, b_, relu)), [x, w, b])
            # ... and is a constant input here.
            check_gradients(lambda w_, b_: loss(Tensor.dense(Tensor(x), w_, b_, relu)), [w, b])
        else:
            check_gradients(lambda x_, w_: loss(Tensor.dense(x_, w_, None, relu)), [x, w])
            check_gradients(lambda w_: loss(Tensor.dense(Tensor(x), w_, None, relu)), [w])

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_soft_cross_entropy(self, n, weighted):
        rng = np.random.default_rng(n)
        targets = np.tile(ood_pseudo_label(2, 3), (n, 1))
        targets[0] = np.eye(5)[4]
        weights = rng.uniform(0.1, 1.0, n) if weighted else None
        check_gradients(
            lambda z: soft_cross_entropy(z, targets, weights), [rng.standard_normal((n, 5))]
        )

    @pytest.mark.parametrize("n", [1, 5])
    def test_negative_entropy(self, n):
        rng = np.random.default_rng(n)
        check_gradients(negative_entropy, [rng.standard_normal((n, 4))])

    @pytest.mark.parametrize("n", [1, 5])
    def test_reconstruction_errors(self, n):
        rng = np.random.default_rng(n)
        weights = Tensor(rng.uniform(0.5, 1.5, n))
        check_gradients(
            lambda p, t: (reconstruction_errors(p, t) * weights).sum(),
            [rng.standard_normal((n, 3)), rng.standard_normal((n, 3))],
        )


# ----------------------------------------------------------------------
# Model level: a smoke-scale fit through the unfused references
# ----------------------------------------------------------------------
def _fit(split):
    model = TargAD(TargADConfig(ae_epochs=3, clf_epochs=4, k_max=4, random_state=0))
    model.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)
    return model


def test_targad_fit_matches_unfused_references(tiny_split, monkeypatch):
    fused = _fit(tiny_split)
    with monkeypatch.context() as patch:
        patch.setattr(Tensor, "_accumulate", copying_accumulate)
        patch.setattr(Dense, "forward", unfused_dense_forward)
        patch.setattr(Sequential, "forward", unfused_sequential_forward)
        patch.setattr("repro.nn.autoencoder.reconstruction_errors", unfused_reconstruction_errors)
        patch.setattr("repro.core.losses.soft_cross_entropy", unfused_soft_cross_entropy)
        patch.setattr("repro.core.losses.negative_entropy", unfused_negative_entropy)
        patch.setattr("repro.core.model.classifier_loss", unfused_classifier_loss)
        unfused = _fit(tiny_split)

    # Everything up to the candidate mask is bitwise.
    sel_f, sel_u = fused.selection_, unfused.selection_
    assert np.array_equal(sel_f.cluster_labels, sel_u.cluster_labels)
    assert np.array_equal(sel_f.errors, sel_u.errors)
    assert np.array_equal(sel_f.candidate_mask, sel_u.candidate_mask)
    for ae_f, ae_u in zip(fused.selector_.autoencoders_, unfused.selector_.autoencoders_):
        assert ae_f.loss_history == ae_u.loss_history
    # The single classifier forward only reorders one gradient sum.
    np.testing.assert_allclose(fused.loss_history, unfused.loss_history, rtol=0, atol=1e-9)
    for p_f, p_u in zip(fused.network_.parameters(), unfused.network_.parameters()):
        np.testing.assert_allclose(p_f.data, p_u.data, rtol=0, atol=1e-9)
