"""Normal law and mean survival against closed forms, and an import free of scipy."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from poolreg import CovariateLaw, constant_model, make_model

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("model_id, q", [
    # p = x^2/8 under N(m, s^2): q = 1 - (m^2 + s^2)/8
    ("iii", 1.0 - (0.5**2 + 0.5**2) / 8.0),
    ("iv", 1.0 - (0.0**2 + 0.75**2) / 8.0),
    # p(2 + t) + p(2 - t) = 1/8 and N(2, 1.5^2) is symmetric about 2
    ("ii", 0.9375),
])
def test_normal_law_mean_survival(model_id, q):
    assert make_model(model_id, "normal").mean_survival() == pytest.approx(q, abs=1e-15)


def test_uniform_law_mean_survival():
    # E{X^2}/8 = 1/24 on U(0, 1)
    assert make_model("iii").mean_survival() == pytest.approx(23 / 24, abs=1e-15)


@pytest.mark.parametrize("law", [None, CovariateLaw("normal", 1.0, 2.0)])
@pytest.mark.parametrize("p0", [0.0, 0.1, 0.37])
def test_constant_model_mean_survival(p0, law):
    assert constant_model(p0, law).mean_survival() == pytest.approx(1.0 - p0, abs=1e-15)


def test_normal_quantile():
    law = CovariateLaw("normal", 0.0, 1.0)
    assert law.quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-15)
    assert law.quantile(0.5) == 0.0


@pytest.mark.parametrize("m, s", [(0.0, 1.0), (2.0, 1.5), (0.5, 0.5)])
def test_normal_pdf_at_the_mean(m, s):
    peak = 1.0 / (s * math.sqrt(2.0 * math.pi))
    assert float(CovariateLaw("normal", m, s).pdf(m)) == pytest.approx(peak, abs=1e-15)


def test_fresh_interpreter_imports_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = "import sys, poolreg, poolreg.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
