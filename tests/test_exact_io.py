"""Exact I/O: rationals rendered from integer rows and parsed to integer pairs.

The renderer and the parser are held to the ``Decimal``-based forms they
replaced, kept here as references, on seeded integers up to 500k bits and
on every spelling class the readers accept or refuse.  The command line is
held byte for byte to the reference rendering of the ``Fraction`` view.
"""

import json
import random
import re
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from markov_bayes import (
    FinSpace,
    Kernel,
    Model,
    NotStatePreserving,
    PSMorphism,
    PSObject,
    TrainingSet,
    batch_update,
    identity,
    product,
    sequential_update,
    state,
    uniform_state,
)
from markov_bayes.cli import _argmax_label, main
from markov_bayes.finstoch import (
    UNIT,
    _digits_int,
    _factored,
    _int_text,
    _trusted,
    format_rat,
    format_row,
    parse_rat,
)
from markov_bayes.serialize import (
    model_from_json,
    model_to_json,
    state_from_map,
    state_to_map,
    training_set_from_csv,
)

DATA_DIR = Path(__file__).parent / "data"
BUNDLE = str(DATA_DIR / "two_point_bundle.json")


# ---------- the references: the Decimal-based forms ----------


def ref_format_rat(q: Fraction) -> str:
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


_REF_RATIONAL = re.compile(r"([-+]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?")


def ref_parse_rat(text: str) -> Fraction:
    body = text.strip()
    match = _REF_RATIONAL.fullmatch(body)
    try:
        if match is None:
            return Fraction(Decimal(body))
        num, den = match.groups()
        return Fraction(int(Decimal(num)), int(Decimal(den or "1")))
    except (ArithmeticError, ValueError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


# ---------- integers to text and back ----------


def _special_ints():
    """Powers, their neighbours and numbers whose low halves are mostly zeros."""
    out = [0, 1, 2, 9, 10, 11]
    for bits in (63, 64, 2047, 2048, 2049, 4096, 4097, 14000, 30001, 100000):
        out += [2**bits, 2**bits - 1, 2**bits + 1, 2 ** (bits - 1) + 2 ** (bits // 3)]
    for digits in (599, 600, 601, 1200, 4300, 4301, 9000):
        out += [10**digits, 10**digits - 1, 10**digits + 1]
    return out


def _seeded_ints(count: int, max_bits: int, seed: int):
    rng = random.Random(seed)
    return [rng.getrandbits(rng.randint(1, max_bits)) for _ in range(count)]


def test_int_text_matches_decimal_up_to_500k_bits():
    values = _special_ints() + _seeded_ints(60, 40000, 1)
    for n in values:
        for v in (n, -n):
            assert _int_text(v) == str(Decimal(v)), v.bit_length()
    for n in _seeded_ints(2, 500000, 2) + [(1 << 500000) - 12345]:
        assert _int_text(n) == str(Decimal(n)), n.bit_length()


def test_digits_int_matches_decimal():
    rng = random.Random(3)
    texts = [str(Decimal(n)) for n in _special_ints() + _seeded_ints(40, 60000, 4)]
    texts.append("0" * 5000 + "7")  # leading zeros across many chunks
    texts.append("1" + "0" * 3000 + "1")
    for t in texts:
        want = int(Decimal(t))
        assert _digits_int(t) == want
        assert _digits_int("-" + t) == -want
        # separators at random places between digits
        cut = sorted(rng.sample(range(1, len(t)), min(5, len(t) - 1))) if len(t) > 1 else []
        pieces = [t[a:b] for a, b in zip([0, *cut], [*cut, len(t)])]
        assert _digits_int("+" + "_".join(pieces)) == want


def test_format_rat_and_row_match_the_reference():
    rng = random.Random(5)
    nums = _seeded_ints(12, 60000, 6) + [0, 1]
    for p in nums:
        for q in (1, 2, 3**20000 + 2, rng.getrandbits(70000) | 1):
            r = Fraction(p, q)
            assert format_rat(r) == ref_format_rat(r)
    # one row: shared, distinct and reduced denominators, and zeros
    d = 2**3 * 3**9000
    row = [0, 3**8999 * 5, 2**3, d - 3**8999 * 5 - 2**3]
    terms = [(f.numerator, f.denominator) for f in (Fraction(n, d) for n in row)]
    assert format_row(terms) == [ref_format_rat(Fraction(n, d)) for n in row]
    assert format_row(terms)[0] == "0/1"


# ---------- text to rationals ----------

SPELLINGS = [
    "3/4", " 2 ", "-3/4", "+3/4", "1_000/3", "0/5", "-0", "00012", "12/0012",
    "2.5e-1", "1.5", "-.5", "5.", "1E+3", "1_0e-1", "_1", "1__0", "1_",
    "٣/٤", "１２", "0e-5", "-0.000", "7e2", "1.25E1",
    "x", "1/0", "", " ", "1.5/2", "1/-2", "nan", "inf", "-Infinity", "sNaN",
    "1/2/3", "1__0/2", "1e", "--1", " 1 / 2 ", "1/ 2", "0x10", "1/_2", "/2",
]


def test_parse_rat_accepts_exactly_the_reference_spellings():
    for text in SPELLINGS:
        assert outcome(parse_rat, text) == outcome(ref_parse_rat, text), text
    assert parse_rat("2.5e-1") == Fraction(1, 4)


def test_parse_rat_matches_the_reference_on_random_text():
    rng = random.Random(7)
    alphabet = "0123456789_-+./eE ٣"
    for _ in range(4000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
        try:
            got = parse_rat(text)
        except ValueError as exc:
            if "exponent" in str(exc):  # refused before the reference's work
                assert abs(Decimal(text).as_tuple().exponent) > 100 * len(text.strip())
                continue
            got = ValueError
        assert got == outcome(ref_parse_rat, text), text


def test_parse_rat_reads_long_digit_strings():
    for n in _seeded_ints(20, 120000, 8) + _special_ints():
        q = Fraction(n, 3**9000 + 1)
        text = ref_format_rat(q)
        assert parse_rat(text) == q
        assert parse_rat(text.replace("/", "/000")) == q
    big = str(Decimal(_seeded_ints(1, 60000, 9)[0]))
    assert parse_rat(f"-{big}.5e-3") == ref_parse_rat(f"-{big}.5e-3")


def test_a_huge_exponent_is_refused_quickly():
    for text in ("1e-2000000", "1e2000000", "5e-601"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent") as exc:
            parse_rat(text)
        assert time.perf_counter() - start < 0.1
        assert repr(text) in str(exc.value)
    assert parse_rat("5e-600") == Fraction(1, 2 * 10**599)


def test_the_public_constructors_bound_a_string_entrys_exponent():
    space = FinSpace("S", ("s0", "s1"))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exponent") as exc:
        state(space, ("1e-4000000", "1"))
    assert time.perf_counter() - start < 0.1
    assert "'1e-4000000'" in str(exc.value)
    with pytest.raises(ValueError, match="exponent"):
        Kernel(space, space, (("1/2", "1/2"), ("1e4000000", "0")))
    assert state(space, (" 2.5e-1", "3/4")).probs == (Fraction(1, 4), Fraction(3, 4))


def test_cli_names_an_entry_with_a_huge_exponent(capsys, tmp_path):
    doc = json.loads(open(BUNDLE).read())
    doc["prior"]["m0"] = "1e-2000000"
    bundle = tmp_path / "b.json"
    bundle.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["learn", str(bundle), str(DATA_DIR / "two_point.csv")])
    assert time.perf_counter() - start < 1
    err = json.loads(capsys.readouterr().err)
    assert code == 1 and err["error"] == "validation"
    assert "'1e-2000000'" in err["message"]


def test_parse_rat_refuses_a_non_string():
    for value in (1, 0.5, None, ["1/2"]):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rat(value)


# ---------- messages about unbounded rationals ----------


def test_a_row_sum_past_the_digit_limit_is_reported():
    x, y = FinSpace("X", ("x0",)), FinSpace("Y", ("y0", "y1"))
    tiny = Fraction(1, 3**20000)
    with pytest.raises(ValueError) as exc:
        Kernel(x, y, ((tiny, Fraction(1, 2)),))
    total = tiny + Fraction(1, 2)
    ref = f"{Decimal(total.numerator)}/{Decimal(total.denominator)}"
    assert str(exc.value) == f"row 0 sums to {ref}, not 1"
    with pytest.raises(ValueError) as exc:
        Kernel(x, y, ((-tiny, 1 + tiny),))
    assert str(exc.value) == f"negative entry -1/{Decimal(3**20000)} in row 0"


def test_cli_reports_a_prior_past_the_digit_limit_that_sums_wrong(capsys, tmp_path):
    doc = json.loads(open(BUNDLE).read())
    doc["prior"]["m0"] = f"1/{Decimal(3**20000)}"
    bundle = tmp_path / "b.json"
    bundle.write_text(json.dumps(doc))
    code = main(["learn", str(bundle), str(DATA_DIR / "two_point.csv")])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["message"].startswith("row 0 sums to ") and err["message"].endswith(", not 1")


def test_a_state_preservation_failure_past_the_digit_limit_is_reported():
    x = FinSpace("X", ("x0", "x1"))
    tiny = Fraction(1, 3**20000)
    a = PSObject(x, state(x, (tiny, 1 - tiny)))
    b = PSObject(x, state(x, (Fraction(1, 2), Fraction(1, 2))))
    with pytest.raises(NotStatePreserving) as exc:
        PSMorphism(a, b, identity(x))
    assert f"1/{Decimal(3**20000)}" in str(exc.value)
    assert str(exc.value).endswith("instead of (1/2, 1/2)")


# ---------- the training CSV ----------


def test_training_csv_reads_a_lone_carriage_return():
    assert training_set_from_csv("x,y\rx0,y0\r\nx1,y1\n").pairs == (
        ("x0", "y0"),
        ("x1", "y1"),
    )


def test_training_csv_turns_a_csv_error_into_a_value_error():
    text = "x,y\nx0,y0\n" + '"' + "a" * 200000 + '",y0\n'
    with pytest.raises(ValueError, match="training CSV line 3"):
        training_set_from_csv(text)


# ---------- argmax ----------


def test_argmax_takes_the_first_maximum():
    m = FinSpace("M", ("m0", "m1", "m2"))
    assert _argmax_label(state(m, ("1/4", "3/8", "3/8"))) == "m1"
    assert _argmax_label(uniform_state(m)) == "m0"


def test_argmax_of_a_large_posterior_builds_no_fraction_view():
    m = FinSpace("M", ("m0", "m1", "m2"))
    big = 3**7000  # over 11,000 bits
    st = _trusted(UNIT, m, ((big - 2, big + 1, 1),), (2 * big,))
    assert _argmax_label(st) == "m1"
    assert "rows" not in vars(st)


def test_learn_builds_no_fraction_view(capsys, tmp_path, monkeypatch):
    def no_view(self):
        raise AssertionError("the Fraction view was built")

    monkeypatch.setattr(Kernel, "rows", property(no_view))
    for mode, pairs in (("batch", 3000), ("seq", 20)):
        csv = tmp_path / f"{mode}.csv"
        csv.write_text("x,y\n" + "x0,y0\nx0,y1\n" * pairs)
        code = main(["learn", BUNDLE, str(csv), "--mode", mode, "--argmax"])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert json.loads(out)["argmax"] in ("m0", "m1")


def _tied_model(prior) -> Model:
    """Parameters with one shared channel row, so the posterior keeps the
    prior's ties at any data."""
    m = FinSpace("M", tuple(f"m{i}" for i in range(len(prior))))
    x = FinSpace("X", ("x0",))
    y = FinSpace("Y", ("y0", "y1"))
    channel = Kernel(product(m, x), y, (("2/5", "3/5"),) * len(prior))
    return Model(m, state(m, prior), x, uniform_state(x), y, channel)


@pytest.mark.parametrize(
    "prior, first",
    [(("1/3", "1/3", "1/3"), "m0"), (("1/5", "2/5", "2/5"), "m1"), (("1/4", "0", "3/8", "3/8"), "m2")],
)
def test_argmax_of_a_batch_posterior_reads_its_decimal_weights(prior, first):
    model = _tied_model(prior)
    post = batch_update(model, TrainingSet((("x0", "y0"), ("x0", "y1")) * 900))
    assert _argmax_label(post) == first
    assert "_ints" not in vars(post)
    num = post._num[0]
    assert post.target.elements[num.index(max(num))] == first


def test_learn_batch_builds_no_binary_weight(capsys, tmp_path, monkeypatch):
    def no_binary(self):
        raise AssertionError("the binary weights were built")

    monkeypatch.setattr(Kernel, "_ints", property(no_binary))
    rng = random.Random(7)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(_grid_bundle(rng, 50, 5, 5)))
    for bundle, labels in ((BUNDLE, ("x0", "y0", "y1")), (str(grid), ("x1", "y2", "y4"))):
        x, *ys = labels
        csv = tmp_path / "train.csv"
        csv.write_text("x,y\n" + "".join(f"{x},{rng.choice(ys)}\n" for _ in range(3000)))
        for extra in ([], ["--argmax"]):
            code = main(["learn", bundle, str(csv), "--mode", "batch", *extra])
            out, err = capsys.readouterr()
            assert code == 0, err
            assert len(json.loads(out)["posterior"]) in (2, 50)


# ---------- batch posteriors printed from decimal ----------


def _differential_model(rng: random.Random, rough: bool) -> Model:
    """Weights that carry 2 and 5 together, so the totals can end in zeros;
    some zero prior entries; and, when ``rough``, the primes 53 and 59."""
    pool = (1, 2, 4, 5, 8, 10, 20, 25, 3) + ((53, 59, 106) if rough else ())

    def row(k, zeros=False):
        w = [rng.choice(pool) for _ in range(k)]
        if zeros:
            w = [v if rng.random() < 0.7 else 0 for v in w]
            w[rng.randrange(k)] = rng.choice(pool)
        return tuple(Fraction(v, sum(w)) for v in w)

    m = FinSpace("M", tuple(f"m{i}" for i in range(rng.randint(2, 5))))
    x = FinSpace("X", tuple(f"x{i}" for i in range(rng.randint(1, 2))))
    y = FinSpace("Y", tuple(f"y{i}" for i in range(rng.randint(2, 3))))
    channel = Kernel(product(m, x), y, tuple(row(len(y)) for _ in range(len(m) * len(x))))
    return Model(m, state(m, row(len(m), zeros=True)), x, state(x, row(len(x))), y, channel)


def test_batch_posterior_prints_as_the_binary_route_does():
    """The decimal rendering of a batch posterior is ``format_row`` of the
    lowest terms that the sequential route's state gives by its own gcds,
    and the state is that state, at counts up to a few thousand.  Every
    batch posterior prints from decimal, the primes 53 and 59 included."""
    rough = reduced = zeros = 0
    for seed in range(60):
        rng = random.Random(seed)
        model = _differential_model(rng, rough=seed % 3 == 0)
        n = rng.randint(1000, 2500) if seed % 10 == 0 else rng.randint(1, 60)
        xs, ys = model.input_space.elements, model.output_space.elements
        data = TrainingSet(tuple((rng.choice(xs), rng.choice(ys)) for _ in range(n)))
        post = batch_update(model, data)
        printed = state_to_map(post)
        assert post._decimals is not None
        assert "_ints" not in vars(post)
        rough += seed % 3 == 0
        final = sequential_update(model, data).final
        assert post == final
        assert list(printed.values()) == format_row(final._terms[0])
        assert list(printed.values()) == format_row(post._terms[0])
        # entries whose gcd with the total is not 1
        reduced += any(q not in (1, post._den[0]) for _, q in post._terms[0])
        zeros += "0/1" in printed.values()
    assert rough > 10 and reduced > 2 and zeros > 5, (rough, reduced, zeros)



def test_a_composite_base_element_divides_out_only_its_shared_part():
    """With ``3127 = 53 * 59`` one element of the base, the weight 3127 over
    the total ``3180 = 53 * 60`` is 59/60: the gcd chain takes 53 alone."""
    space = FinSpace("M", ("m0", "m1", "m2"))
    # the weights 3127, 2 and 51 = 3 * 17
    base = (2, 3, 17, 3127)
    factors = ((0, (0, 0, 0, 1)), (1, (1, 0, 0, 0)), (2, (0, 1, 1, 0)))
    post = _factored(space, base, factors)
    printed = state_to_map(post)
    assert printed == {"m0": "59/60", "m1": "1/1590", "m2": "17/1060"}
    assert post == state(space, ("3127/3180", "2/3180", "51/3180"))
    assert format_row(post._terms[0]) == list(printed.values())

# ---------- the command line, byte for byte ----------


def _grid_bundle(rng: random.Random, params: int, inputs: int, outputs: int) -> dict:
    def label_map(labels):
        w = [rng.randint(1, 4) for _ in labels]
        return {lab: f"{v}/{sum(w)}" for lab, v in zip(labels, w)}

    ms = [f"m{i}" for i in range(params)]
    xs = [f"x{i}" for i in range(inputs)]
    ys = [f"y{i}" for i in range(outputs)]
    channel = []
    for _ in range(params * inputs):
        w = [rng.randint(1, 4) for _ in ys]
        channel.append([f"{v}/{sum(w)}" for v in w])
    return {
        "params": {"name": "M", "elements": ms},
        "prior": label_map(ms),
        "input": {"name": "X", "elements": xs},
        "input_state": label_map(xs),
        "output": {"name": "Y", "elements": ys},
        "channel": channel,
    }


def _reference_learn_output(bundle: dict, csv_text: str, mode: str) -> str:
    model = model_from_json(bundle)
    data = training_set_from_csv(csv_text)

    def label_map(st):
        return {label: ref_format_rat(p) for label, p in zip(st.target.elements, st.probs)}

    if mode == "seq":
        trace = sequential_update(model, data)
        doc = {"posterior": label_map(trace.final), "trace": [label_map(s) for s in trace.states]}
    else:
        doc = {"posterior": label_map(batch_update(model, data))}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize(
    "shape, n, mode",
    [
        ((50, 5, 5), 2000, "batch"),
        ((50, 5, 5), 30, "seq"),
        ((3, 2, 3), 60, "seq"),
        (None, 6000, "batch"),
        (None, 300, "seq"),
    ],
)
def test_learn_output_is_the_reference_rendering(capsys, tmp_path, shape, n, mode):
    rng = random.Random(f"{shape}:{n}:{mode}")
    if shape is None:
        bundle = json.loads(open(BUNDLE).read())
    else:
        bundle = _grid_bundle(rng, *shape)
    xs, ys = bundle["input"]["elements"], bundle["output"]["elements"]
    csv_text = "x,y\n" + "".join(f"{rng.choice(xs)},{rng.choice(ys)}\n" for _ in range(n))
    bundle_path, csv_path = tmp_path / "b.json", tmp_path / "t.csv"
    bundle_path.write_text(json.dumps(bundle))
    csv_path.write_text(csv_text)
    code = main(["learn", str(bundle_path), str(csv_path), "--mode", mode])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out == _reference_learn_output(bundle, csv_text, mode)
    if mode == "batch":
        # the posterior reads back to the identical state
        model = model_from_json(bundle)
        st = state_from_map(model.params, json.loads(out)["posterior"])
        assert st == batch_update(model, training_set_from_csv(csv_text))


def test_model_and_state_writers_round_trip_past_the_digit_limit():
    m = FinSpace("M", ("m0", "m1"))
    x = FinSpace("X", ("x0",))
    y = FinSpace("Y", ("y0", "y1"))
    big = Fraction(3**15000, 2**30000)
    channel = Kernel(product(m, x), y, ((big, 1 - big), ("1/4", "3/4")))
    model = Model(m, state(m, (1 - big, big)), x, uniform_state(x), y, channel)
    doc = model_to_json(model)
    assert doc["channel"][0] == [ref_format_rat(big), ref_format_rat(1 - big)]
    assert state_to_map(model.prior) == {"m0": ref_format_rat(1 - big), "m1": ref_format_rat(big)}
    assert model_from_json(json.loads(json.dumps(doc))) == model
