"""The paper's claims, asserted through the one table that computes them.

Every row of :data:`repro.analysis.figures.CLAIMS` is checked here at a
small scale (``docs/paper-mapping.md`` shows each at the scale it states):
its kind is named and each reproduced value is within the row's tolerance
of the paper's.  Figure 4 is arithmetic over two named inputs (line rate,
generator cap), so its tests check that the values follow from those
inputs; the ``section-5`` row checks that the real programs meet the
line-rate precondition, and its tests that a second pass would show.  Figure
5 is read off the simulator with the host/NIC cost as a calibrated input,
so its tests check that each program's own pipeline latency — and nothing
else — reaches its RTT.
"""

import inspect

import pytest

from repro.analysis import figures
from repro.analysis.figures import (
    CLAIMS,
    FIGURE4_FRAME_SIZES,
    HOST_NIC_ONE_WAY,
    KINDS,
    PROGRAMS,
    figure3_ratio,
    figure4,
    figure5,
    figure5_programs,
)
from repro.net.ethernet import frame_wire_bytes
from repro.tofino.pipeline import DEFAULT_PIPELINE_LATENCY

#: Rows whose stated scale is too slow for the suite, and the scale they are
#: asserted at here (Table 2 is asserted at the paper's m = 8 instead of 3).
TEST_SCALES = {
    **{claim.id: 10_000 for claim in CLAIMS if claim.id.startswith("fig3-")},
    "learning-delay": 3,
    "table-2": 8,
}


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim):
    assert claim.kind in KINDS
    values = claim.values(TEST_SCALES.get(claim.id, claim.scale))
    assert claim.holds(values), f"{values} vs paper {claim.paper} ± {claim.tolerance}"


def test_claim_ids_are_unique():
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)


def test_gzip_beats_zipline_on_dns():
    # The paper's DNS shape: gzip slightly better than dynamic learning.
    assert figures.figure3_gzip_ratio("dns", 10_000) < figure3_ratio("dns", "dynamic", 10_000)


@pytest.fixture(scope="module")
def processed_programs():
    """The three programs after each has processed its Figure 5 probe."""
    programs = figure5_programs()
    figure5(programs)
    return programs


class TestFigure4Shape:
    def test_throughput_series(self):
        rates = figure4()
        gbps = {key: rate * key[1] * 8 / 1e9 for key, rate in rates.items()}
        for name in PROGRAMS:
            assert [round(gbps[(name, size)], 3) for size in FIGURE4_FRAME_SIZES] == [
                3.584, 84.0, 99.734
            ]
            assert [
                round(rates[(name, size)] / 1e6, 3) for size in FIGURE4_FRAME_SIZES
            ] == [7.0, 7.0, 1.385]
        for size in FIGURE4_FRAME_SIZES:
            assert len({rates[(name, size)] for name in PROGRAMS}) == 1

    def test_values_derive_from_the_two_inputs(self, monkeypatch):
        def expected(size):
            return min(
                figures.LINE_RATE_BPS / (frame_wire_bytes(size) * 8),
                figures.GENERATOR_PACKET_RATE,
            )

        for line_rate, generator in ((100e9, 7.0e6), (10e9, 7.0e6), (100e9, 1e9)):
            monkeypatch.setattr(figures, "LINE_RATE_BPS", line_rate)
            monkeypatch.setattr(figures, "GENERATOR_PACKET_RATE", generator)
            rates = figure4()
            assert rates == {
                (name, size): expected(size)
                for name in PROGRAMS
                for size in FIGURE4_FRAME_SIZES
            }
        # Without the generator cap, 64 B frames run at line rate (88 wire bytes).
        assert rates[("encode", 64)] == 100e9 / (88 * 8)

    @pytest.mark.parametrize(
        "size, binding", [(64, "generator"), (1500, "generator"), (9000, "line rate")]
    )
    def test_binding_input_per_frame_size(self, size, binding):
        line_rate_bound = figures.LINE_RATE_BPS / (frame_wire_bytes(size) * 8)
        rate = figures.packet_rate(size)
        if binding == "generator":
            assert line_rate_bound > figures.GENERATOR_PACKET_RATE
            assert rate == figures.GENERATOR_PACKET_RATE
        else:
            assert line_rate_bound < figures.GENERATOR_PACKET_RATE
            assert rate == line_rate_bound
            # Jumbo frames fill the link but for preamble, FCS and gap.
            assert 99e9 < rate * size * 8 < figures.LINE_RATE_BPS

    def test_line_rate_binds_from_1762_byte_frames(self):
        # 1762 B + 24 B of FCS, preamble and gap = 1786 wire bytes, the
        # first occupancy at which 100 Gbit/s carries under 7 Mpkt/s.
        assert figures.packet_rate(1761) == figures.GENERATOR_PACKET_RATE
        assert figures.packet_rate(1762) < figures.GENERATOR_PACKET_RATE
        assert frame_wire_bytes(1762) == 1786

    def test_uncapped_rates_are_the_100_gbe_packet_budgets(self, monkeypatch):
        monkeypatch.setattr(figures, "GENERATOR_PACKET_RATE", float("inf"))
        # ≈ 148.8 Mpkt/s for minimum-size frames, ≈ 8.1 Mpkt/s for 1514 B.
        assert figures.packet_rate(60) == pytest.approx(148.8e6, rel=0.01)
        assert figures.packet_rate(1514) == pytest.approx(8.12e6, rel=0.01)
        # A shorter frame is padded to the minimum and costs the same.
        assert figures.packet_rate(46) == figures.packet_rate(60)


class TestLineRatePrecondition:
    """The ``section-5`` row's third value: programs whose pipeline ran more
    passes than frames arrived, or that emitted more frames than they
    received."""

    SECTION_5 = next(claim for claim in CLAIMS if claim.id == "section-5")

    def test_each_figure5_program_passes_once_per_arriving_frame(
        self, processed_programs
    ):
        for program in processed_programs.values():
            switch = program.switch
            ports = [switch.port_stats(port) for port in range(switch.port_count)]
            assert program.pipeline.packets_processed == 1
            assert sum(stats.rx_packets for stats in ports) == 1
            assert sum(stats.tx_packets for stats in ports) == 1

    @pytest.mark.parametrize("extra", ["pass", "frame"])
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_a_second_pass_or_an_extra_frame_is_counted(self, monkeypatch, name, extra):
        """A second pipeline pass for one arriving frame (a recirculation:
        the pass is counted, no frame arrives), or a second frame sent for
        one received (a duplication), makes that program count."""
        probe = bytes(64)  # an Ethernet frame with no ZipLine header
        real_figure5 = figures.figure5

        def figure5_then_again(programs):
            rtts = real_figure5(programs)
            program = programs[name]
            if extra == "pass":
                program.pipeline.packets_processed += 1
            else:
                program.switch.transmit(1, probe, 0.0)
            return rtts

        monkeypatch.setattr(figures, "figure5", figure5_then_again)
        assert self.SECTION_5.values(None)[2] == 1


class TestFigure5Shape:
    def test_latency_series(self):
        rtts = figure5()
        assert set(rtts) == set(PROGRAMS)
        assert len(set(rtts.values())) == 1
        # Two links at 100 Gbit/s and 0.5 µs around a 0.6 µs pipeline carry a
        # 60-byte-minimum frame one way in 1.61344 µs; the host adds 5 µs.
        assert rtts["encode"] == pytest.approx(2 * (1.61344e-6 + 5e-6), rel=1e-12)
        assert all(10e-6 <= rtt <= 15e-6 for rtt in rtts.values())

    def test_deterministic_and_takes_no_seed(self):
        assert list(inspect.signature(figure5).parameters) == ["programs"]
        assert figure5() == figure5()

    @pytest.mark.parametrize("slowed", PROGRAMS)
    def test_a_program_pipeline_latency_reaches_its_rtt(self, slowed):
        delta = 2.0 ** -20  # ≈ 0.95 µs, exact in binary
        baseline = figure5()
        programs = figure5_programs()
        programs[slowed]._latency += delta
        rtts = figure5(programs)
        for name in PROGRAMS:
            assert rtts[name] - baseline[name] == (2 * delta if name == slowed else 0.0)

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_one_way_time_is_wire_and_pipeline(self, name):
        # Every probe frame is padded to the 64-byte minimum: 84 wire bytes
        # on each of the two links, plus their propagation and one pipeline.
        one_way = figure5()[name] / 2 - HOST_NIC_ONE_WAY
        link = 84 * 8 / 100e9 + 0.5e-6
        assert one_way == pytest.approx(2 * link + DEFAULT_PIPELINE_LATENCY, rel=1e-12)

    def test_host_nic_cost_is_a_calibrated_input(self, monkeypatch):
        assert HOST_NIC_ONE_WAY == pytest.approx(1.5e-6 + 1.0e-6 + 1.0e-6 + 1.5e-6)
        baseline = figure5()
        monkeypatch.setattr(figures, "HOST_NIC_ONE_WAY", 0.0)
        simulated = figure5()
        for name in PROGRAMS:
            assert baseline[name] - simulated[name] == pytest.approx(
                2 * HOST_NIC_ONE_WAY, rel=1e-12
            )

    @pytest.mark.parametrize(
        "name, branch",
        [
            ("no_op", "passthrough_other"),
            ("encode", "raw_to_uncompressed"),
            ("decode", "uncompressed_to_raw"),
        ],
    )
    def test_each_probe_takes_its_program_branch(self, processed_programs, name, branch):
        program = processed_programs[name]
        assert program.pipeline.packets_processed == 1
        counts = {
            label: sample.packets for label, sample in program.counters.as_dict().items()
        }
        assert counts == {label: int(label == branch) for label in counts}
