"""Tests for the Adam optimizer."""

import numpy as np
import pytest

from repro.nn import Adam, Parameter
from repro.tensor import ops


def quadratic_step(param, optimizer):
    """One optimization step of f(w) = ||w - 3||^2."""
    target = np.full_like(param.data, 3.0)
    diff = ops.sub(param, target)
    loss = ops.sum(ops.mul(diff, diff))
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    return loss.item()


class TestAdam:
    def test_converges_on_quadratic(self):
        w = Parameter(np.zeros(3))
        opt = Adam([w], lr=0.1)
        for _ in range(300):
            quadratic_step(w, opt)
        np.testing.assert_allclose(w.data, 3.0, atol=1e-2)

    def test_first_step_magnitude_close_to_lr(self):
        # Adam's bias correction makes the first step ≈ lr * sign(grad).
        w = Parameter(np.zeros(1))
        opt = Adam([w], lr=0.05)
        quadratic_step(w, opt)
        assert w.data[0] == pytest.approx(0.05, rel=1e-3)

    def test_weight_decay_applied(self):
        w_plain = Parameter(np.full(1, 5.0))
        w_decay = Parameter(np.full(1, 5.0))
        plain = Adam([w_plain], lr=0.01)
        decay = Adam([w_decay], lr=0.01, weight_decay=0.5)
        for _ in range(50):
            quadratic_step(w_plain, plain)
            quadratic_step(w_decay, decay)
        # Decay pulls the optimum below 3.
        assert w_decay.data[0] < w_plain.data[0]

    def test_invariant_to_gradient_scale(self):
        # Adam normalizes by the second moment: scaling the loss by 100
        # leaves the step size nearly unchanged.
        w_a = Parameter(np.zeros(1))
        w_b = Parameter(np.zeros(1))
        opt_a, opt_b = Adam([w_a], lr=0.1), Adam([w_b], lr=0.1)

        for w, opt, scale in ((w_a, opt_a, 1.0), (w_b, opt_b, 100.0)):
            diff = ops.sub(w, np.full(1, 3.0))
            loss = ops.mul(ops.sum(ops.mul(diff, diff)), scale)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert w_a.data[0] == pytest.approx(w_b.data[0], rel=1e-6)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=-0.1)

    def test_skips_parameters_without_grad(self):
        w = Parameter(np.ones(2))
        opt = Adam([w], lr=0.5)
        opt.step()  # no backward happened
        np.testing.assert_allclose(w.data, 1.0)

    def test_rejects_empty_parameter_list(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


BAD_RATES = [
    dict(lr=float("nan")),
    dict(lr=float("inf")),
    dict(lr=0.01, weight_decay=-1.0),
    dict(lr=0.01, weight_decay=float("nan")),
    dict(lr=0.01, weight_decay=float("inf")),
]


class TestRateValidation:
    @pytest.mark.parametrize("optimizer", [Adam])
    @pytest.mark.parametrize(
        "rates", BAD_RATES, ids=lambda r: ",".join(f"{k}={v}" for k, v in r.items())
    )
    def test_rejects_non_finite_lr_and_bad_weight_decay(self, optimizer, rates):
        # Each of these trained without error before: a negative decay
        # grows the weights, a NaN rate quietly poisons them.
        with pytest.raises(ValueError):
            optimizer([Parameter(np.ones(1))], **rates)

    def test_trainer_rejects_negative_weight_decay(self, tiny_graph):
        from repro.models import GCN
        from repro.training import Trainer, make_rng

        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=4)
        with pytest.raises(ValueError):
            Trainer(max_epochs=2, weight_decay=-1.0).fit(model, tiny_graph)
