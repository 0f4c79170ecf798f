"""The central correctness property of the reproduction.

One D-BSP program, five engines — the direct executor (ground truth), the
HMM simulation (§3), the BT simulation (§5), the Brent self-simulation
(§4), and ``vec``, the HMM simulation on the vectorized kernel — must
produce *identical* final contexts.  This suite runs the first four;
``tests/test_vec_kernel.py`` pins ``vec`` to ``hmm`` with ``==``.  Any
scheduling error in a simulator (wrong cluster order, lost or early
message, bad swap bookkeeping) shows up here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsp.machine import DBSPMachine
from repro.functions import (
    ConstantAccess,
    LinearAccess,
    LogarithmicAccess,
    PolynomialAccess,
)
from repro.sim.brent import BrentSimulator
from repro.sim.bt_sim import BTSimulator
from repro.sim.hmm_sim import HMMSimulator
from repro.testing import random_program

from tests.conftest import program_zoo


def run_all_engines(prog, f, v_host=4):
    direct = DBSPMachine(f).run(prog.with_global_sync())
    hmm = HMMSimulator(f, check_invariants="full").simulate(prog)
    bt = BTSimulator(f, check_invariants=True).simulate(prog)
    brent = BrentSimulator(f, v_host=min(v_host, prog.v)).simulate(prog)
    return direct.contexts, hmm.contexts, bt.contexts, brent.contexts


class TestAllEnginesAgree:
    def test_program_zoo(self, case_function):
        for prog, extract in program_zoo(16):
            d, h, b, br = run_all_engines(prog, case_function)
            assert extract(h) == extract(d), f"HMM vs direct: {prog.name}"
            assert extract(b) == extract(d), f"BT vs direct: {prog.name}"
            assert extract(br) == extract(d), f"Brent vs direct: {prog.name}"

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        log_v=st.integers(min_value=1, max_value=5),
        n_steps=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_programs(self, seed, log_v, n_steps):
        f = PolynomialAccess(0.5)
        prog = random_program(1 << log_v, n_steps=n_steps, seed=seed)
        d, h, b, br = run_all_engines(prog, f, v_host=1 << (log_v // 2))
        key = lambda cs: [c["w"] for c in cs]
        assert key(h) == key(d)
        assert key(b) == key(d)
        assert key(br) == key(d)

    @pytest.mark.parametrize(
        "f",
        [ConstantAccess(), LinearAccess(), PolynomialAccess(0.2),
         PolynomialAccess(0.45), LogarithmicAccess()],
        ids=lambda f: f.name,
    )
    def test_extreme_access_functions(self, f):
        prog = random_program(16, n_steps=8, seed=42)
        d, h, b, br = run_all_engines(prog, f)
        key = lambda cs: [c["w"] for c in cs]
        assert key(h) == key(d) and key(b) == key(d) and key(br) == key(d)

    @given(bias=st.sampled_from(["uniform", "fine", "coarse"]),
           seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_label_profiles(self, bias, seed):
        from repro.testing import random_label_sequence

        f = LogarithmicAccess()
        labels = random_label_sequence(16, 8, seed=seed, bias=bias)
        prog = random_program(16, labels=labels, seed=seed)
        d, h, b, br = run_all_engines(prog, f)
        key = lambda cs: [c["w"] for c in cs]
        assert key(h) == key(d) and key(b) == key(d) and key(br) == key(d)

    def test_heavier_local_work(self):
        f = PolynomialAccess(0.5)
        prog = random_program(16, n_steps=6, seed=77, local_work=20)
        d, h, b, br = run_all_engines(prog, f)
        key = lambda cs: [c["w"] for c in cs]
        assert key(h) == key(d) and key(b) == key(d) and key(br) == key(d)
