"""Fixtures shared by the lifecycle suites: the tiny split and a model fitted on it."""

import pytest

from repro.core import TargAD, TargADConfig


@pytest.fixture(scope="module")
def split():
    from tests.conftest import TINY_SPEC, make_tiny_generator
    from repro.data.splits import build_split

    return build_split(make_tiny_generator(0), TINY_SPEC, scale=1.0, random_state=0)


@pytest.fixture(scope="module")
def model(split):
    model = TargAD(TargADConfig(random_state=0, k=2, ae_lr=3e-3,
                                ae_epochs=10, clf_epochs=12))
    model.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)
    return model
