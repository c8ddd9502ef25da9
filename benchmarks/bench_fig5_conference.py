"""Figure 5 — the conference (Infocom'06-like) trace, step utility.

Panel (a): hourly observed utility over three days — the diurnal
alternation must be visible.  Panels (b)/(c): loss vs ``tau`` on the
actual trace and on the paper's memoryless "synthesized" control.
Reproduction targets (Section 6.3): DOM and PROP become relatively strong
on the real trace; SQRT is "not a clear winner anymore"; QCR — local
information only — remains within roughly 15% of OPT; and OPT, computed
under a memoryless assumption, can occasionally be outperformed on the
bursty actual trace.
"""

from __future__ import annotations

from repro.experiments import figure5


def test_figure5_conference(benchmark, emit, profile):
    result = benchmark.pedantic(
        figure5, kwargs={"profile": profile}, rounds=1, iterations=1
    )
    emit("figure5", result.render())

    # Panel (a): day/night alternation — daytime hourly gains must
    # dominate nighttime gains.
    qcr_series = result.utility_over_time.series["QCR"]
    hours = (result.utility_over_time.times % 1440.0) / 60.0
    day_mask = (hours >= 8) & (hours < 20)
    assert qcr_series[day_mask].mean() > 2 * max(
        qcr_series[~day_mask].mean(), 1e-9
    )

    # Panels (b)/(c): QCR stays within ~25% of OPT across the sweep
    # (paper: ~15% — we allow headroom for the reduced quick profile).
    for panel in (result.actual_panel, result.synthesized_panel):
        for loss in panel.losses["QCR"]:
            assert loss > -30.0

    # DOM is far stronger here than under homogeneous contacts for
    # stringent deadlines.
    assert result.actual_panel.losses["DOM"][0] > -60.0
