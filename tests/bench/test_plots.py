"""The hand-rolled SVG curve renderer: structure, determinism, escaping."""

import xml.dom.minidom

from repro.bench.plots import plot_report, render_all, render_model_svg


def _curves():
    def point(particles, wall, err=None):
        p = {"particles": particles, "wall_time_s": wall, "quality_atol": 0.05}
        if err is not None:
            p["max_abs_err"] = err
            p["max_err_se"] = err / 5.0
        return p

    return [
        {
            "key": "weight/is/interp/shards=1",
            "model": "weight", "engine": "is", "backend": "interp", "shards": 1,
            "points": [point(250, 0.01, 0.04), point(1000, 0.04, 0.02)],
        },
        {
            "key": "weight/is/compiled/shards=1",
            "model": "weight", "engine": "is", "backend": "compiled", "shards": 1,
            "points": [point(250, 0.005, 0.04), point(1000, 0.02, 0.02)],
        },
        {
            "key": "hmm_chain/8/smc/interp/shards=1",
            "model": "hmm_chain/8", "engine": "smc", "backend": "interp", "shards": 1,
            # No golden stats: the accuracy panel must render its placeholder.
            "points": [point(250, 0.02), point(1000, 0.09)],
        },
    ]


def test_render_model_svg_is_wellformed_and_complete():
    svg = render_model_svg("weight", [c for c in _curves() if c["model"] == "weight"])
    xml.dom.minidom.parseString(svg)  # raises on malformed markup
    assert svg.count("<polyline") == 4  # 2 curves x 2 panels
    assert "weight — wall time vs particles" in svg
    assert "max golden error" in svg
    # The compiled backend gets the dashed stroke; interp stays solid.
    assert 'stroke-dasharray="6 3"' in svg
    assert "weight/is/compiled/shards=1" in svg  # legend row


def test_render_is_deterministic():
    curves = _curves()
    assert render_all(curves) == render_all(list(reversed(curves)))


def test_missing_golden_stats_render_placeholder():
    svg = render_model_svg("hmm_chain/8", [_curves()[2]])
    xml.dom.minidom.parseString(svg)
    assert "no golden-site data" in svg
    assert svg.count("<polyline") == 1  # wall-time panel only


def test_plot_report_writes_one_file_per_model(tmp_path):
    written = plot_report({"curves": _curves()}, tmp_path)
    assert written == ["hmm_chain_8.svg", "weight.svg"]
    for name in written:
        xml.dom.minidom.parse(str(tmp_path / name))
