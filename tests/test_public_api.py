"""The package's public names, and README's example of them."""

import re
from pathlib import Path

import switchbeam


def test_all_is_pinned():
    # a name joins the public surface on purpose, in this list, or not at all
    assert switchbeam.__all__ == [
        "ArrayConfig",
        "ArraySchedule",
        "CircuitParams",
        "ConstellationResult",
        "ElementSchedule",
        "HarmonicCoefficient",
        "HarmonicSpectrum",
        "PatternTable",
        "PboPoint",
        "PowerBreakdown",
        "PulseTrain",
        "SymbolPlan",
        "amplitude_of_alpha",
        "array_factor",
        "circuit_efficiency",
        "compute_spectrum",
        "design_schedule",
        "envelope_dft_coefficients",
        "harmonic_efficiency",
        "harmonic_power",
        "pbo_sweep",
        "plan_constellation",
        "power_breakdown",
        "predistort_alpha",
        "radiation_pattern",
        "sideband_level",
        "simulate_constellation",
        "steering_onset",
        "suppressed_harmonics",
        "total_drain_efficiency",
        "total_power",
        "validate",
    ]
    assert all(hasattr(switchbeam, name) for name in switchbeam.__all__)


def test_readme_library_use_prints_its_commented_figures(capsys):
    # each print's comment gives the figure it prints, to that many decimals
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    figures = re.findall(r"^print\(.*#\s*(-?\d+(?:\.(\d+))?)", code, re.M)
    exec(compile(code, "README.md", "exec"), {})
    printed = [float(line) for line in capsys.readouterr().out.splitlines()]
    assert len(figures) == 3
    assert len(printed) == len(figures)
    for value, (figure, decimals) in zip(printed, figures):
        assert round(value, len(decimals)) == float(figure)
