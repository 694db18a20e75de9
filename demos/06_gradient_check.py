"""Verifying every analytic gradient against central differences.

The reverse-mode tape computes one gradient per parameter entry; the
check perturbs each entry by +-h and compares (f(t+h) - f(t-h)) / 2h
against the tape's answer, staged so constant subcomputations are
reused.  A deliberately corrupted backward rule is caught immediately.
"""

import numpy as np

from pairsim import model as md
from pairsim import numcore as nc
from pairsim.gradcheck import build_check_fixture, model_grad_check, synthetic_lexicon
from pairsim.objectives import ScoreSpec

lex = synthetic_lexicon(seed=13)
spec = md.ModelSpec(task="sts", encoder="maxlstm", comparison="multi",
                    total_dim=lex.total_dim, H=6, l=6, L=4, d_neu=4, C=5,
                    dropout_p=0.0, score=ScoreSpec(5, 0.0, 5.0))
params, batch = build_check_fixture(spec, lex, seed=13)

groups = ["encoder.R", "encoder.U_lstm", "comparison.W_sent",
          "comparison.b_ws2", "head.W_l2"]
report = model_grad_check(params, lex, batch, only=groups)
print("group                    max relative error")
for g in report.groups:
    print(f"  {g.name:22s} {g.max_rel_err:.3e}")
print("passes 1e-4 threshold:", report.passed(1e-4))

# a first-principles example: f(theta) = sum(theta^2), gradient 2*theta
theta = np.array([3.0, -1.5])
simple = nc.grad_check(lambda p: nc.vsum(nc.elementwise_mul(p["t"], p["t"])),
                       {"t": theta})
print(f"\nf = sum(t^2) at t = {theta}: max relative error "
      f"{simple.max_rel_err:.1e}")

# corrupt one backward rule and watch the check fail
real_sigmoid = nc.sigmoid


def crooked_sigmoid(x):
    y = nc.expit(nc._value(x))

    def backward(g):
        nc._acc(x, g * (y * (1.0 - y)) * 1.01)  # 1% too large
    return nc._finish(y, (x,), backward)


nc.sigmoid = crooked_sigmoid
try:
    bad = model_grad_check(params, lex, batch, only=["comparison.b_sent"])
finally:
    nc.sigmoid = real_sigmoid
worst = bad.groups[0]
print(f"\nwith a 1% corrupted sigmoid jacobian: {worst.name} "
      f"error {worst.max_rel_err:.2e} -> passes: {bad.passed(1e-4)}")
