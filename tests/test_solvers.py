"""The scalar root-finder: its frozen probe sequences, its bracket contract
and its walk below the 2^-60 floor."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from olk import solvers
from olk.errors import ConvergenceError

CASES = {
    "smooth": (lambda c: c * c * c - 5.0, {}),
    "step": (lambda c: 0.0 if c >= 0.3 else -1.0, {}),
    "step_strict": (lambda c: 1.0 if c >= 0.3 else 0.0, {"strict": True}),
    "deep": (lambda c: c - 2.0**-700, {}),
    "everywhere": (lambda c: 1.0, {}),
    "infinite": (lambda c: math.log(c - 0.3) if c > 0.3 else -math.inf,
                 {"rel_tol": 1e-13}),
}

# the bracket (lo, hi) and every argument fn received, as float.hex, from
# the earlier array implementation of the solver (one lockstep solve per
# array entry); the scalar loop must take the same steps bit for bit
PROBES = {
    "smooth": (
        ("0x1.b5c0fbcf37320p+0", "0x1.b5c0fbcff335ap+0"),
        [
        "0x1.0000000000000p+0", "0x1.0000000000000p+2", "0x1.411f99306818ep+0",
        "0x1.766e868c79d51p+0", "0x1.b1c11aaccd012p+0", "0x1.4d3a724a1d5dbp+1",
        "0x1.0cd47f9920ad8p+1", "0x1.e2ebb34502729p+0", "0x1.c9ad822378424p+0",
        "0x1.bd8e356435d47p+0", "0x1.b79d84f68c822p+0", "0x1.b4accb65e2c25p+0",
        "0x1.b6248688c4063p+0", "0x1.b568809f4fecap+0", "0x1.b5c6797bde82bp+0",
        "0x1.b5977a87d1b65p+0", "0x1.b5aef9605e113p+0", "0x1.b5bab945beb1ap+0",
        "0x1.b5c09956b6916p+0", "0x1.b5c38966c4838p+0", "0x1.b5c2115e1c096p+0",
        "0x1.b5c1555a40ed3p+0", "0x1.b5c0f75871a73p+0", "0x1.b5c1265956c44p+0",
        "0x1.b5c10ed8e3944p+0", "0x1.b5c10318aa756p+0", "0x1.b5c0fd388e044p+0",
        "0x1.b5c0fa487fd33p+0", "0x1.b5c0fbc086eb1p+0", "0x1.b5c0fc7c8a778p+0",
        "0x1.b5c0fc1e88b15p+0", "0x1.b5c0fbef87ce3p+0", "0x1.b5c0fbd8075cbp+0",
        "0x1.b5c0fbcc4723dp+0", "0x1.b5c0fbd227404p+0", "0x1.b5c0fbcf37320p+0",
        "0x1.b5c0fbd0af393p+0", "0x1.b5c0fbcff335ap+0",
        ]),
    "step": (
        ("0x1.333333331bd26p-2", "0x1.333333339fc36p-2"),
        [
        "0x1.0000000000000p+0", "0x1.0000000000000p-2", "0x1.bdb8cdadbe120p-1",
        "0x1.8e612e259da64p-1", "0x1.2e2e26dac7e79p-1", "0x1.895705e76ce7fp-2",
        "0x1.3d532582dbe24p-2", "0x1.1d048e90a8db4p-2", "0x1.2cbcdf5472b67p-2",
        "0x1.34eb83d0836c6p-2", "0x1.30cd2a5098ab8p-2", "0x1.32da923a03d51p-2",
        "0x1.33e2996e4d2d6p-2", "0x1.335e797a9be97p-2", "0x1.331c7ec572476p-2",
        "0x1.333d7a5a9f074p-2", "0x1.332cfc1eb4b8dp-2", "0x1.33353b205421bp-2",
        "0x1.33311b986f160p-2", "0x1.33332b5a9c431p-2", "0x1.3334333d06dbcp-2",
        "0x1.3333af4bb539dp-2", "0x1.33336d5321a90p-2", "0x1.33334c56dd30ap-2",
        "0x1.33333bd8bc488p-2", "0x1.33333399ac297p-2", "0x1.33332f7a242f3p-2",
        "0x1.33333189e82a9p-2", "0x1.33333291ca299p-2", "0x1.33333315bb296p-2",
        "0x1.33333357b3a96p-2", "0x1.33333336b7696p-2", "0x1.3333332639496p-2",
        "0x1.3333332e78595p-2", "0x1.3333333297e16p-2", "0x1.33333334a7a56p-2",
        "0x1.333333339fc36p-2", "0x1.333333331bd26p-2",
        ]),
    "step_strict": (
        ("0x1.333333332e6adp-2", "0x1.33333333b25bdp-2"),
        [
        "0x1.0000000000000p+0", "0x1.0000000000000p-2", "0x1.2611186bae674p-2",
        "0x1.490348540afb4p-2", "0x1.265599299bba4p-2", "0x1.26990e888a3e9p-2",
        "0x1.26db7e9cdf744p-2", "0x1.27840fe4a685fp-2", "0x1.37d09af3417a3p-2",
        "0x1.2f8e557a15cc6p-2", "0x1.33a860186b098p-2", "0x1.319997cc64d3cp-2",
        "0x1.32a08ad242f20p-2", "0x1.3324592126de7p-2", "0x1.33665586377dep-2",
        "0x1.3345558e3b84fp-2", "0x1.3334d6e65a5d6p-2", "0x1.332c97e76bab8p-2",
        "0x1.3330b75fcdaf8p-2", "0x1.3332c7214eae3p-2", "0x1.3333cf03632f5p-2",
        "0x1.33334b123c993p-2", "0x1.33330919be8e5p-2", "0x1.33332a15fbce7p-2",
        "0x1.33333a941bc28p-2", "0x1.333332550bac2p-2", "0x1.3333367493b04p-2",
        "0x1.33333464cfac7p-2", "0x1.3333335cedabdp-2", "0x1.333332d8fcabep-2",
        "0x1.3333331af52bep-2", "0x1.3333333bf16bdp-2", "0x1.3333332b734bdp-2",
        "0x1.33333333b25bdp-2", "0x1.3333332f92d3dp-2", "0x1.33333331a297ep-2",
        "0x1.33333332aa79ep-2", "0x1.333333332e6adp-2",
        ]),
    "deep": (
        ("0x1.ffffffff771a8p-701", "0x1.0000000029809p-700"),
        [
        "0x1.0000000000000p+0", "0x1.0000000000000p-2", "0x1.0000000000000p-4",
        "0x1.0000000000000p-8", "0x1.0000000000000p-16",
        "0x1.0000000000000p-32", "0x1.0000000000000p-60",
        "0x1.0000000000000p-120", "0x1.0000000000000p-240",
        "0x1.0000000000000p-480", "0x1.0000000000000p-960",
        "0x1.0000000000000p-912", "0x1.d722d5f33bda5p-874",
        "0x1.adefb332c77e7p-798", "0x1.4bc22cd37475cp-639",
        "0x1.0b0dab2fba2f0p-718", "0x1.a4f1d9bb7335bp-679",
        "0x1.da296d5e3c101p-699", "0x1.f73e16c199b8ap-709",
        "0x1.e87c5edc00959p-704", "0x1.544f45dd29625p-701",
        "0x1.91b2de500e3a3p-700", "0x1.0570b08539bdap-700",
        "0x1.a5d4b113ecb90p-701", "0x1.d5a54b604af00p-701",
        "0x1.ef8c77b4d1156p-701", "0x1.fd07f87df20e5p-701",
        "0x1.01f463aa24c03p-700", "0x1.003ab5d378efep-700",
        "0x1.febdf5a42be43p-701", "0x1.ff998175bfa04p-701",
        "0x1.0003b55fee2dap-700", "0x1.ffd073277fe91p-701",
        "0x1.ffebee36d07f3p-701", "0x1.fff9ac4c1dc00p-701",
        "0x1.000045bd175cep-700", "0x1.fffd1be032ad0p-701",
        "0x1.fffed3ac73b89p-701", "0x1.ffffaf9321fffp-701",
        "0x1.00000ec34e474p-700", "0x1.ffffe68cdc3d8p-701",
        "0x1.00000104ddc98p-700", "0x1.fffff44b4bb90p-701",
        "0x1.fffffb2a83b05p-701", "0x1.fffffe9a1f9ebp-701",
        "0x1.00000028f6cc1p-700", "0x1.ffffff76069b3p-701",
        "0x1.ffffffe3fa199p-701", "0x1.0000000d79f78p-700",
        "0x1.ffffffff771a8p-701", "0x1.000000069ac26p-700",
        "0x1.000000032b27dp-700", "0x1.00000001735a8p-700",
        "0x1.000000009773ep-700", "0x1.0000000029809p-700",
        ]),
    "everywhere": (
        ("0x0.0p+0", "0x0.0p+0"),
        [
        "0x1.0000000000000p+0", "0x1.0000000000000p-2", "0x1.0000000000000p-4",
        "0x1.0000000000000p-8", "0x1.0000000000000p-16",
        "0x1.0000000000000p-32", "0x1.0000000000000p-60",
        "0x1.0000000000000p-120", "0x1.0000000000000p-240",
        "0x1.0000000000000p-480", "0x1.0000000000000p-960",
        ]),
    "infinite": (
        ("0x1.4cccccccccbffp+0", "0x1.4cccccccccd23p+0"),
        [
        "0x1.0000000000000p+0", "0x1.0000000000000p+2", "0x1.8bbf5b34cbb88p+0",
        "0x1.4a9f923429113p+0", "0x1.4da163aa9f00ap+0", "0x1.4ccc816951934p+0",
        "0x1.4cccd6a075417p+0", "0x1.4ccccccccb8f5p+0", "0x1.4cccccccccd23p+0",
        "0x1.4cccccccccbffp+0",
        ]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_probes_match_the_frozen_sequence(name):
    f, kwargs = CASES[name]
    seen = []

    def fn(c):
        seen.append(c.hex())
        return f(c)

    lo, hi = solvers.increasing_root(fn, **kwargs)
    (want_lo, want_hi), want_args = PROBES[name]
    assert seen == want_args
    assert (lo.hex(), hi.hex()) == (want_lo, want_hi)


def test_increasing_root_walks_below_the_floor():
    roots = [2.0**-100, 2.0**-700, 0.0, 0.75]
    brackets = [solvers.increasing_root(lambda c, r=r: c - r) for r in roots]
    for (lo, hi), root in zip(brackets[:2], roots[:2]):
        assert hi == pytest.approx(root, rel=1e-10, abs=0.0)
        assert lo < root
    # satisfied at every probe: the infimum 0, not a positive floor
    assert brackets[2] == (0.0, 0.0)
    assert brackets[3][1] == pytest.approx(0.75, rel=1e-10)
    # an Amemiya objective that rises for every k has infimum +inf at 0
    assert solvers.amemiya_norm(lambda k: 0.0, lambda k: 2.0) == math.inf


SHAPES = {
    "linear": (lambda c, root: c - root, False),
    "step": (lambda c, root: 1.0 if c >= root else -1.0, False),
    "strict_step": (lambda c, root: 1.0 if c > root else 0.0, True),
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(k=st.floats(-1000.0, 59.0), shape=st.sampled_from(sorted(SHAPES)),
       rel_tol=st.sampled_from([1e-10, 1e-12, 1e-13]))
def test_bracket_contract(k, shape, rel_tol):
    f, strict = SHAPES[shape]
    root = 2.0**k

    def satisfied(c):
        y = f(c, root)
        return y > 0.0 if strict else y >= 0.0

    lo, hi = solvers.increasing_root(lambda c: f(c, root), rel_tol=rel_tol,
                                     strict=strict)
    if satisfied(2.0**-960):
        # satisfied at the deepest probe: the infimum 0
        assert (lo, hi) == (0.0, 0.0)
    else:
        assert satisfied(hi) and not satisfied(lo)
        # rel_tol, up to a few units in the last place of x = log2 c,
        # where the bracket is narrowed, and of c
        slack = 4.0 * (math.ulp(math.log2(hi)) * hi + math.ulp(hi))
        assert hi - lo <= rel_tol * hi + slack


@settings(derandomize=True, max_examples=50, deadline=None)
@given(k=st.floats(60.0, 1000.0, exclude_min=True),
       shape=st.sampled_from(sorted(SHAPES)))
def test_roots_above_the_cap_raise(k, shape):
    f, strict = SHAPES[shape]
    root = 2.0**k
    with pytest.raises(ConvergenceError):
        solvers.increasing_root(lambda c: f(c, root), strict=strict)
