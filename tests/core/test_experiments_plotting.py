"""Experiment-driver and plotting tests (small-scale figure shapes).

The paper's claims about these figures are asserted once, at the paper's
scenario, in tests/paper/; what stays here exercises the drivers at a
short trace and small inputs (sweep shapes, rendering, the 80-rank trace).
"""

import numpy as np
import pytest

from repro.core import (
    ascii_bars,
    ascii_heatmap,
    experiment_fig3,
    experiment_fig4a,
    experiment_fig4bc,
    experiment_fig5ab,
    experiment_table1,
    paper_scenario,
    radar_table,
)


@pytest.fixture(scope="module")
def scenario():
    return paper_scenario(iterations=10)


class TestFig3:
    def test_sweep_shapes(self, scenario):
        study = experiment_fig3(scenario, sizes=(4, 8, 16, 32))
        assert len(study.logged_fraction) == 4
        # Logging falls with size; encoding grows with size.
        assert study.logged_fraction == sorted(study.logged_fraction, reverse=True)
        assert study.encoding_s_per_gb == sorted(study.encoding_s_per_gb)

    def test_paper_values_at_key_sizes(self, scenario):
        study = experiment_fig3(scenario, sizes=(4, 8, 32))
        # ~25 % at 4, ~13 % at 8, < 4 % at 32 (Fig. 3 narrative).
        assert study.logged_fraction[0] == pytest.approx(0.25, abs=0.03)
        assert study.logged_fraction[1] == pytest.approx(0.13, abs=0.02)
        assert study.logged_fraction[2] < 0.04 + 1e-9

    def test_render(self, scenario):
        out = experiment_fig3(scenario, sizes=(8, 32)).render()
        assert "cluster size" in out and "32" in out


class TestFig4:
    def test_fig4b_distribution_explodes_logging(self, scenario):
        study = experiment_fig4bc(scenario, sizes=(16, 32))
        for non, dist in zip(
            study.logging_non_distributed, study.logging_distributed
        ):
            assert dist > 0.9  # 'very high number of messages logged'
            assert non < 0.2

    def test_render(self):
        out = experiment_fig4a(sizes=(4, 8)).render()
        assert "P[cat]" in out


class TestFig5ab:
    @pytest.fixture(scope="class")
    def study(self):
        # Scaled-down §V execution: 16 nodes x 4 app procs (+encoders) = 80.
        return experiment_fig5ab(
            nodes=16, app_per_node=4, iterations=12, checkpoint_every=6
        )

    def test_structural_features(self, study):
        halo = study.kind_matrices["halo"]
        ready = study.kind_matrices["fti-ready"]
        ring = study.kind_matrices["fti-encode"]
        encoders = np.array(study.encoder_ranks)
        # Diagonals interrupted at encoder ranks.
        assert halo[encoders, :].sum() == 0
        # Encoder rows carry the ready notifications.
        assert all(ready[e, :].sum() > 0 for e in encoders)
        # Encoder-to-encoder ring points exist.
        assert ring.sum() > 0

    def test_zoom_covers_first_ranks(self, study):
        study.zoom_size = 20
        assert study.zoom.shape == (20, 20)

    def test_renderers(self, study):
        full = study.render_full(max_size=40)
        zoomed = study.render_zoom()
        assert "Fig. 5a" in full and "Fig. 5b" in zoomed
        assert len(full.splitlines()) >= 40


class TestTable1:
    def test_contains_table1_facts(self):
        out = experiment_table1()
        assert "1408" in out
        assert "360" in out  # SSD write MB/s
        assert "Lustre" in out


class TestPlotting:
    def test_heatmap_downsamples(self):
        m = np.random.default_rng(0).random((100, 100))
        out = ascii_heatmap(m, max_size=25)
        assert len(out.splitlines()) == 25

    def test_heatmap_empty(self):
        out = ascii_heatmap(np.zeros((4, 4)))
        assert set(out.replace("\n", "")) == {" "}

    def test_heatmap_validation(self):
        with pytest.raises(ValueError):
            ascii_heatmap(np.zeros((2, 3)))

    def test_bars_basic(self):
        out = ascii_bars(["a", "bb"], [1.0, 2.0], width=10, unit="%")
        lines = out.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_bars_log_scale(self):
        out = ascii_bars(["x", "y"], [1e-6, 1e-1], log_scale=True)
        assert "#" in out

    def test_bars_validation(self):
        with pytest.raises(ValueError):
            ascii_bars(["a"], [1.0, 2.0])
        assert ascii_bars([], []) == ""

    def test_radar_table_marks_inside(self):
        out = radar_table(
            {
                "good": {"logging": 0.1, "recovery": 0.2, "encoding": 0.3, "reliability": 0.4},
                "bad": {"logging": 2.0, "recovery": 0.2, "encoding": 0.3, "reliability": 0.4},
            }
        )
        lines = out.splitlines()
        good_line = next(l for l in lines if l.startswith("good"))
        bad_line = next(l for l in lines if l.startswith("bad"))
        assert "yes" in good_line and "NO" in bad_line
