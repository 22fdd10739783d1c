"""The one count rule and the one real-number rule, at every place a
count or a real parameter enters the package.

check_count is the only copy of the count rule, so each site below must
reject what it rejects, with its message, and store what it accepts as
a plain int. apply_dead_time and the RateSummary cells are checked the
same way in test_pipeline.py and test_analysis.py. check_counts is the
same rule for arrays of pulse indices, timestamps and channel codes, so
each array below must reject what is not a 1-d integer array of counts
in its range. check_real is the
only copy of the finite, positive, non-negative and unit-interval
checks, so a value that is not a real number is a ValidationError at
each real parameter below, never an untyped TypeError. check_reals is
the same rule for arrays of delays, profile values, photon
probabilities and fit points, so a string, bool, ragged or non-finite
array, or one outside the unit range where that is the range, is a
ValidationError at each array site below, and an int or float32 array
gives what its float64 copy gives.
"""

import math
import pickle
import re

import numpy as np
import pytest

from zeroherald.analysis import RateSummary, compute_rates, estimate_efficiencies, gaussian_fit
from zeroherald.errors import (
    ValidationError,
    check_count,
    check_counts,
    check_real,
    check_reals,
)
from zeroherald.model import (
    DetectorParams,
    IndistinguishabilityProfile,
    SourceParams,
    curve_grid,
    cwr_approx,
    heralded_fidelity,
    invert_cwr_for_eta1,
    invert_cwr_for_eta2_unheralded,
    p_noclick_given_n,
    success_probability,
)
from zeroherald.pipeline import (
    PulseEventTable,
    PulseGrid,
    apply_dead_time,
    gate_window_tb,
    virtual_gate,
)
from zeroherald.sim import SimConfig, delay_configs
from zeroherald.tags import TagStream

# a whole float, a bool and a digit string were each accepted somewhere
BAD_COUNTS = [-1, 2.5, 2.0, True, "3", None]


def detector(**kw):
    return DetectorParams(**{"eta": 0.5, **kw})


def sim_config(**kw):
    return SimConfig(**{
        "source": SourceParams(gamma=1e-3, kappa1=1.0, kappa2=1.0),
        "det1": DetectorParams(eta=0.5), "det2": DetectorParams(eta=0.5),
        "profile": IndistinguishabilityProfile(nu_max=0.9, tau=1e-13),
        "n_pulses": 1000, "seed": 1, **kw})


def stream(**kw):
    return TagStream(**{"timebin_ps": 81, "rep_period_ps": 9963, "divider": 512,
                        "refs": [], "d1": [], "d2": [], **kw})


def event_table(**kw):
    return PulseEventTable(**{"n_pulses": 10, "clicks1": [], "clicks2": [],
                              "dead_pulses1": 0, "dead_pulses2": 0, **kw})


# (constructor, field, least value)
SITES = [
    (detector, "dead_pulses", 0),
    (sim_config, "n_pulses", 1),
    (sim_config, "divider", 1),
    (sim_config, "seed", 0),
    (stream, "timebin_ps", 1),
    (stream, "rep_period_ps", 1),
    (stream, "divider", 1),
    (event_table, "n_pulses", 0),
    (event_table, "dead_pulses1", 0),
    (event_table, "dead_pulses2", 0),
]
SITE_IDS = [f"{make.__name__}.{name}" for make, name, _ in SITES]


def rejects(make, name, value, kind):
    message = f"{name} must be a {kind} integer, got {value!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        make(**{name: value})


@pytest.mark.parametrize("make, name, least", SITES, ids=SITE_IDS)
@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
def test_every_site_rejects_what_is_not_a_count(make, name, least, value):
    rejects(make, name, value, "positive" if least else "non-negative")


@pytest.mark.parametrize("make, name, least", SITES, ids=SITE_IDS)
def test_zero_is_a_count_only_where_none_is_allowed(make, name, least):
    if least:
        rejects(make, name, 0, "positive")
    else:
        assert getattr(make(**{name: 0}), name) == 0


@pytest.mark.parametrize("make, name, least", SITES, ids=SITE_IDS)
@pytest.mark.parametrize("value", [np.int64(7), np.uint8(7)], ids=repr)
def test_every_site_stores_a_numpy_integer_as_int(make, name, least, value):
    stored = getattr(make(**{name: value}), name)
    assert type(stored) is int and stored == 7


class TestCheckCount:
    def test_returns_a_plain_int(self):
        assert type(check_count("k", np.uint16(3))) is int

    def test_least_one_asks_for_a_positive_integer(self):
        with pytest.raises(ValidationError, match="^k must be a positive integer, got 0$"):
            check_count("k", 0, least=1)
        assert check_count("k", 1, least=1) == 1

    @pytest.mark.parametrize("value", [np.bool_(True), np.float64(2.0), 3 + 0j])
    def test_numpy_bool_float_and_complex_are_not_counts(self, value):
        with pytest.raises(ValidationError, match="non-negative integer"):
            check_count("k", value)


def gate(refs):
    """virtual_gate over a hand-built grid with these reference times."""
    tags = TagStream(timebin_ps=1, rep_period_ps=10, divider=4, refs=[0, 40], d1=[5], d2=[])
    return virtual_gate(tags, PulseGrid(ref_times=refs, divider=4, period_tb=10.0),
                        window=5e-12)


def records(channels=(0, 1), timestamps=(3, 4)):
    return TagStream.from_records(channels, timestamps, timebin_ps=1, rep_period_ps=10, divider=4)


def size(values) -> int:
    """Entries of values, a ragged list's too."""
    return np.asarray(values, dtype=object).size


# every entry point that takes an integer array, by the array it takes;
# the first three take pulse indices, which are int64 and so below 2**63
PULSE_SITES = {
    "apply_dead_time": lambda v: apply_dead_time(v, 0),
    "PulseEventTable.clicks1": lambda v: event_table(n_pulses=2**63 - 1, clicks1=v),
    "PulseEventTable.clicks2": lambda v: event_table(n_pulses=2**63 - 1, clicks2=v),
}
ARRAY_SITES = {
    **PULSE_SITES,
    "TagStream.refs": lambda v: stream(refs=v),
    "TagStream.d1": lambda v: stream(d1=v),
    "TagStream.d2": lambda v: stream(d2=v),
    "from_records.channels": lambda v: records(channels=v, timestamps=[3] * size(v)),
    "from_records.timestamps": lambda v: records(channels=[0] * size(v), timestamps=v),
    "virtual_gate.ref_times": gate,
}
BAD_ARRAYS = {
    "float": [1.5, 2.0],
    "bool": [True, False],
    "string": ["3", "1"],
    "0-d": np.array(3),
    "2-d": [[1, 2]],
    "negative": [-5, 995],
    "ragged": [1, [2]],
}


@pytest.mark.parametrize("call", ARRAY_SITES.values(), ids=ARRAY_SITES.keys())
@pytest.mark.parametrize("values", BAD_ARRAYS.values(), ids=BAD_ARRAYS.keys())
def test_every_array_site_rejects_what_is_not_counts(call, values):
    with pytest.raises(ValidationError):
        call(values)


@pytest.mark.parametrize("call", PULSE_SITES.values(), ids=PULSE_SITES.keys())
def test_a_pulse_index_at_or_past_2_to_63_is_rejected(call):
    with pytest.raises(ValidationError):
        call(np.array([5, 2**63 + 5], dtype=np.uint64))


@pytest.mark.parametrize("call", ARRAY_SITES.values(), ids=ARRAY_SITES.keys())
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64, np.uint64], ids=str)
def test_every_array_site_takes_counts_of_any_integer_dtype(call, dtype):
    call(np.array([0, 2], dtype=dtype))


class TestCheckCounts:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
    def test_returns_the_array_with_its_dtype(self, dtype):
        values = np.array([0, 7], dtype=dtype)
        assert check_counts("k", values) is values

    def test_a_list_and_an_empty_array_pass(self):
        assert check_counts("k", [3, 1]).tolist() == [3, 1]
        assert check_counts("k", [], below=0).size == 0

    def test_below_bounds_every_entry(self):
        assert check_counts("k", [0, 2], below=3).tolist() == [0, 2]
        message = "^k must be a 1-d array of non-negative integers below 3, got int64 of shape"
        with pytest.raises(ValidationError, match=message):
            check_counts("k", [0, 3], below=3)

    def test_u64_entries_past_int64_are_counts(self):
        values = np.array([0, 2**64 - 1], dtype=np.uint64)
        assert check_counts("k", values) is values
        with pytest.raises(ValidationError, match="below 9223372036854775808"):
            check_counts("k", values, below=2**63)


# each call passes a string where a real number goes: a probability or
# efficiency was read with float() (and a model type kept the string),
# anything else ended in an untyped TypeError
REAL_CALLS = {
    "RateSummary.delta_t": lambda: RateSummary("0", 10, 5, 1, 1, 1),
    "SimConfig.delta_t": lambda: sim_config(delta_t="0"),
    "invert_cwr_for_eta1.cwr": lambda: invert_cwr_for_eta1("1.1", 0.1, 0.9),
    "invert_cwr_for_eta2_unheralded.cwr": lambda: invert_cwr_for_eta2_unheralded("0.9", 0.9),
    "SimConfig.jitter_sigma": lambda: sim_config(jitter_sigma="0"),
    "SimConfig.gate_window": lambda: sim_config(gate_window="2e-9"),
    "IndistinguishabilityProfile.tau": lambda: IndistinguishabilityProfile(nu_max=0.9, tau="1"),
    "SourceParams.gamma": lambda: SourceParams(gamma="0.1", kappa1=1.0, kappa2=1.0),
    "cwr_approx.eta1p": lambda: cwr_approx("0.1", 0.1, 0.9),
    "gate_window_tb.window": lambda: gate_window_tb("1e-9", 81, 123.0),
    "compute_rates.delta_t": lambda: compute_rates(event_table(), "0"),
    "estimate_efficiencies.cwr_peak": lambda: estimate_efficiencies("1.04", 0.96, 0.975),
    "estimate_efficiencies.cwr_noherald": lambda: estimate_efficiencies(1.04, "0.96", 0.975),
}


@pytest.mark.parametrize("call", REAL_CALLS.values(), ids=REAL_CALLS.keys())
def test_a_string_is_not_a_real_parameter(call):
    with pytest.raises(ValidationError, match=r"must be a real number, got '"):
        call()


class TestCheckReal:
    @pytest.mark.parametrize("value", ["0", None, True, np.bool_(True), 1 + 0j, [0.5]], ids=repr)
    def test_what_is_not_a_real_number_is_rejected(self, value):
        with pytest.raises(ValidationError, match=r"^x must be a real number, got "):
            check_real("x", value)

    @pytest.mark.parametrize("within, text, inside, outside", [
        ("finite", "finite", [-1e300, 0, 7], [math.nan, math.inf, -math.inf, 10**400]),
        ("positive", "positive and finite", [1e-300, 3], [0, -1.0, math.nan, math.inf]),
        ("non-negative", "finite and >= 0", [0, 0.0, 2], [-1e-300, math.nan, math.inf]),
        ("unit", r"in \[0, 1\]", [0, 0.5, 1], [-1e-300, 1 + 1e-15, math.nan, math.inf]),
    ])
    def test_each_range(self, within, text, inside, outside):
        for value in inside:
            assert check_real("x", value, within) == value
        for value in outside:
            with pytest.raises(ValidationError, match=f"^x must be {text}, got "):
                check_real("x", value, within)

    @pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), np.int8(0), 0])
    def test_numpy_reals_and_ints_pass_as_float(self, value):
        assert type(check_real("x", value, "unit")) is float


def tabulated(delays=(0.0, 1e-13), values=(0.5, 0.5)):
    return IndistinguishabilityProfile(shape="tabulated", delays=delays, values=values)


def fit(pair):
    """gaussian_fit of six points, the first with pair as its delay and rate."""
    return gaussian_fit([[*pair, 0.1]] + [[x, 1.0, 0.1] for x in range(1, 6)])


# every entry point that takes an array of reals, by the array it takes, as
# (call of a two-entry array, a valid one); the unit sites take [0, 1]
REAL_SITES = {
    "nu": (lambda v: IndistinguishabilityProfile(nu_max=0.9, tau=1e-13).nu(v), [0.0, 1e-13]),
    "tabulated.delays": (lambda v: tabulated(delays=v), [0.0, 1e-13]),
    "curve_grid.delays": (lambda v: curve_grid(SourceParams(1e-3, 1.0, 1.0), 0.5, 0.5,
                                               sim_config().profile, v), [0.0, 1e-13]),
    "delay_configs": (lambda v: delay_configs(sim_config(), v), [0.0, 1e-13]),
    "gaussian_fit.points": (fit, [0.0, 1e-13]),
}
UNIT_SITES = {
    "tabulated.values": (lambda v: tabulated(values=v), [0.0, 1.0]),
    "success_probability": (lambda v: success_probability(v, detector()), [0.0, 1.0]),
    "heralded_fidelity": (lambda v: heralded_fidelity(v, detector()), [0.0, 1.0]),
}


def bad_reals(good, unit):
    """Two-entry arrays like good that are not what the site takes."""
    rows = {"string": [str(x) for x in good], "bool": [False, True],
            "ragged": [good[0], [good[1]]], "nan": [good[0], math.nan],
            "inf": [good[0], math.inf]}
    return {**rows, "-0.5": [-0.5, 1.5], "1.5": [1.5, -0.5]} if unit else rows


BAD_REAL_ROWS = [(f"{site}-{row}", call, values)
                 for sites, unit in ((REAL_SITES, False), (UNIT_SITES, True))
                 for site, (call, good) in sites.items()
                 for row, values in bad_reals(good, unit).items()]


@pytest.mark.parametrize("call, values", [row[1:] for row in BAD_REAL_ROWS],
                         ids=[row[0] for row in BAD_REAL_ROWS])
def test_every_real_array_site_rejects_what_is_not_reals_in_range(call, values):
    with pytest.raises(ValidationError):
        call(values)


@pytest.mark.parametrize("call", [call for call, _ in [*REAL_SITES.values(), *UNIT_SITES.values()]],
                         ids=[*REAL_SITES, *UNIT_SITES])
@pytest.mark.parametrize("dtype", [np.int64, np.float32], ids=["int64", "float32"])
def test_every_real_array_site_takes_int_and_float32_as_their_float64(call, dtype):
    values = np.array([0, 1], dtype=dtype)
    assert pickle.dumps(call(values)) == pickle.dumps(call(values.astype(np.float64)))


@pytest.mark.parametrize("dtype", [np.int64, np.float32], ids=["int64", "float32"])
def test_fit_points_of_any_real_dtype_fit_as_float64(dtype):
    points = np.array([[x, 1 + (x == 2), 1] for x in range(6)], dtype=dtype)
    assert gaussian_fit(points).to_dict() == gaussian_fit(points.astype(np.float64)).to_dict()


class TestPhotonNumbers:
    @pytest.mark.parametrize("n", [[1, [2]], [[1, 2]], np.array([[1, 2]])], ids=repr)
    def test_ragged_and_2d_photon_numbers_are_rejected(self, n):
        with pytest.raises(ValidationError, match="^n must be a 1-d array"):
            p_noclick_given_n(detector(), n)

    @pytest.mark.parametrize("n", [2, np.int64(2), np.uint8(2)], ids=repr)
    def test_a_numpy_integer_is_a_photon_number(self, n):
        got = p_noclick_given_n(detector(), n)
        assert type(got) is float and got == 0.25

    def test_an_array_of_photon_numbers_gives_an_array(self):
        np.testing.assert_array_equal(p_noclick_given_n(detector(), [0, 1, 2]), [1, 0.5, 0.25])


# arrays whose shapes differ past the first axis, which numpy cannot stack
MISSHAPEN = [np.zeros((2, 2), dtype=np.int64), np.zeros((2, 3), dtype=np.int64)]


def test_misshapen_arrays_are_not_counts():
    message = "refs timestamps must be a 1-d array of non-negative integers, got object of shape (2,)"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        stream(refs=MISSHAPEN)


def test_misshapen_arrays_are_not_reals():
    with pytest.raises(ValidationError, match=r"^delays must be real numbers, got object of shape \(2,\)$"):
        REAL_SITES["curve_grid.delays"][0](MISSHAPEN)


class TestCheckReals:
    @pytest.mark.parametrize("values", [["0.5"], [True], [0.5, True], [0.5, [1]], 1 + 0j,
                                        None, np.array([2**70], dtype=object)], ids=repr)
    def test_what_is_not_reals_is_rejected(self, values):
        with pytest.raises(ValidationError, match=r"^x must be real numbers, got \S+ of shape "):
            check_reals("x", values)

    @pytest.mark.parametrize("values, shape", [(3, ()), ([1, 2], (2,)), ([[1.5], [2]], (2, 1))])
    def test_returns_float64_of_the_input_shape(self, values, shape):
        reals = check_reals("x", values)
        assert reals.dtype == np.float64 and reals.shape == shape

    def test_a_float64_array_is_returned_as_it_is(self):
        values = np.array([0.5, 1.0])
        assert check_reals("x", values, "unit") is values

    @pytest.mark.parametrize("within, text, inside, outside", [
        ("finite", "finite", [-1e300, 0, 7], [math.nan, math.inf, -math.inf]),
        ("positive", "positive and finite", [1e-300, 3], [0, -1.0, math.nan, math.inf]),
        ("non-negative", "finite and >= 0", [0, 0.0, 2], [-1e-300, math.nan, math.inf]),
        ("unit", r"in \[0, 1\]", [0, 0.5, 1], [-1e-300, 1 + 1e-15, math.nan, math.inf]),
    ])
    def test_each_range_as_check_real(self, within, text, inside, outside):
        np.testing.assert_array_equal(check_reals("x", inside, within), inside)
        for value in outside:
            with pytest.raises(ValidationError, match=f"^x must be {text}, got {float(value)!r}$"):
                check_reals("x", value, within)
            with pytest.raises(ValidationError, match=rf"^x must be {text}, got .* index \(1, 0\)$"):
                check_reals("x", [[inside[0]], [value]], within)

    def test_the_message_gives_the_first_bad_entry_not_the_input(self):
        with pytest.raises(ValidationError) as err:
            check_reals("x", [0.0] * 1000 + [math.nan, math.inf])
        assert str(err.value) == "x must be finite, got nan at index (1000,)"
