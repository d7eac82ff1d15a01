"""The package's records: immutable, compared by value (a gauge by
identity), built and copied through their checks, and imported without
`dataclasses` or `typing`."""

import ast
import copy
import importlib
import inspect
import json
import math
import os
import pickle
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from quasimod import (INF, AxiomReport, CauchyClassification, CoverResult,
                      DirectedGraph, DiscreteMeasureSpace, DynamicCostSchedule,
                      Edge, FiniteTopology, GaugeSpec, JoinReport, LpNet,
                      LpTailReport, LuxemburgResult, MusielakOrlicz,
                      OneSidedPair, PartialFunction, Profile, Regime,
                      ScaleGrid, TransportResult, TruncatedSequenceFamily,
                      UnitBallReport, check_axioms, critical_thresholds,
                      heine_borel_report, lower_envelope,
                      luxemburg_infimum, make_classical_modular, make_min_cap,
                      make_one_sided_integral, make_ratio, make_scaled_metric,
                      make_sublinear, quasi_pseudometric_check,
                      transport_total_boundedness, upper_envelope,
                      verify_join_equality)

SRC = Path(__file__).resolve().parent.parent / "src"

GRID = ScaleGrid((1.0, 2.0))
TABLE = {("a", "b"): (2.0, 1.0), ("b", "a"): (1.0, 0.5)}


def table_gauge(table=TABLE):
    return GaugeSpec(Regime.ADDITIVE, ("a", "b"), grid=GRID, table=table)


PHI = MusielakOrlicz.variable_exponent({"x": 2.0})
TOPOLOGY = FiniteTopology(("a", "b"), (1, 3))

# one instance of every record class, by class name
RECORDS = {
    "AxiomReport": lambda: check_axioms(table_gauge()),
    "CauchyClassification": lambda: CauchyClassification("bi", 1, 1, 1),
    "CoverResult": lambda: CoverResult(("a",), 1.0, 1.0, "forward",
                                       ("a", "b"), True),
    "TransportResult": lambda: TransportResult(True, ("a",), ("b",)),
    "LpTailReport": lambda: LpTailReport(True, (1.0,), 1, True, None),
    "LpNet": lambda: LpNet(((0.0,),), 2.0, 0.5, True),
    "HeineBorelReport": lambda: heine_borel_report(table_gauge()),
    "LuxemburgResult": lambda: LuxemburgResult(1.0, (0.5, 1.0), 3),
    "UnitBallReport": lambda: UnitBallReport(1.0, 1.0, True, True, True),
    "OneSidedPair": lambda: OneSidedPair(PHI, PHI),
    "ThresholdSet": lambda: critical_thresholds(table_gauge()),
    "FiniteTopology": lambda: TOPOLOGY,
    "JoinReport": lambda: verify_join_equality(table_gauge()),
    "GaugeSpec": table_gauge,
    "ScaleGrid": lambda: GRID,
    "Profile": lambda: Profile(GRID, (2.0, 1.0)),
    "Edge": lambda: Edge("a", "b", 1.0, 2.0),
    "DirectedGraph": lambda: DirectedGraph(("a", "b"),
                                           (Edge("a", "b", 1.0, 2.0),)),
    "DynamicCostSchedule": lambda: DynamicCostSchedule((0.0,), {(0.0, 0): 1.0}),
    "DiscreteMeasureSpace": lambda: DiscreteMeasureSpace(("x",), {"x": 1.0}),
    "MusielakOrlicz": lambda: PHI,
    "PartialFunction": lambda: PartialFunction(("a",), {"a": 0.0}, 1.0),
    "TruncatedSequenceFamily": lambda: TruncatedSequenceFamily(((1.0,),), 2.0),
}


def loaded(code: str, modules: set) -> list:
    """The modules of `modules` that `code`, run under `python -S` with the
    package on the path and QUASIMOD_LOG unset, leaves in sys.modules."""
    env = {k: v for k, v in os.environ.items() if k != "QUASIMOD_LOG"}
    env["PYTHONPATH"] = str(SRC)
    code += f"; print(*sorted({modules!r} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    found = loaded("import sys, quasimod.cli", {"dataclasses", "inspect"})
    assert found == [], f"import quasimod.cli loaded {found}"


def test_the_cli_imports_and_runs_without_typing_logging_or_csv(tmp_path):
    # the records are collections.namedtuples, logging is imported under
    # QUASIMOD_LOG only, csv for a .csv report only, and the command line is
    # read without argparse, which imports gettext
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"regime": "additive", "points": ["a", "b"],
                               "grid": [1, 2], "table": {"a|b": [2, 1],
                                                         "b|a": [1, 0.5]}}))
    unread = {"typing", "logging", "csv", "argparse", "gettext"}
    found = loaded("import sys, quasimod.cli", unread)
    assert found == [], f"import quasimod.cli loaded {found}"
    found = loaded("import sys, quasimod.cli; assert quasimod.cli.main(["
                   f"'check-axioms', '--input', {str(src)!r}, '--output', "
                   f"{str(tmp_path / 'r.json')!r}]) == 0", unread)
    assert found == [], f"check-axioms loaded {found}"


# every named-tuple record of the package, by module
NAMED = {
    "axioms": ("AxiomReport", "Violation"),
    "cli": ("_PairMap", "_RowTable"),
    "completeness": ("CauchyClassification", "CoverResult", "HeineBorelReport",
                     "HeineBorelRow", "LpNet", "LpTailReport",
                     "TransportResult"),
    "luxemburg": ("LuxemburgResult",),
    "orlicz": ("OneSidedPair", "UnitBallReport"),
    "topology": ("FiniteTopology", "JoinReport", "ThresholdSet"),
}


def named_classes(module):
    """The named-tuple classes `module` defines, by name."""
    return {name: obj for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, tuple)
            and hasattr(obj, "_fields") and obj.__module__ == module.__name__}


def test_the_named_records_are_the_listed_ones():
    found = {stem: tuple(sorted(named_classes(
        importlib.import_module(f"quasimod.{stem}"))))
        for stem in sorted(NAMED)}
    assert found == NAMED
    for path in sorted((SRC / "quasimod").glob("*.py")):
        if path.stem not in NAMED:
            assert not named_classes(importlib.import_module(
                f"quasimod.{path.stem}")), path.stem


@pytest.mark.parametrize("module, name", [(m, n) for m in sorted(NAMED)
                                          for n in NAMED[m]])
def test_a_named_record_keeps_the_shape_its_class_body_gives(module, name):
    """Fields, defaults and docstring as the class body reads them; a record
    is a tuple that pickles, copies and compares as one."""
    cls = getattr(importlib.import_module(f"quasimod.{module}"), name)
    body, = (node for node in ast.parse(
        (SRC / "quasimod" / f"{module}.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and node.name == name)
    fields = tuple(node.target.id for node in body.body
                   if isinstance(node, ast.AnnAssign))
    defaults = {node.target.id: ast.literal_eval(node.value)
                for node in body.body
                if isinstance(node, ast.AnnAssign) and node.value is not None}
    assert cls.__name__ == cls.__qualname__ == name
    assert cls._fields == fields and cls.__match_args__ == fields
    assert cls._field_defaults == defaults
    assert tuple(cls.__annotations__) == fields
    # from 3.13 the compiler strips a docstring's indentation
    assert inspect.cleandoc(cls.__doc__) == (
        ast.get_docstring(body) or f"{name}({', '.join(fields)}"
                                   f"{',' if len(fields) == 1 else ''})")
    assert cls.__mro__[1:] == (tuple, object)
    values = tuple(range(len(fields)))
    record = cls(*values)
    assert type(record).__name__ == name
    assert record == values and hash(record) == hash(values)
    assert cls._make(values) == record and record._asdict() == dict(
        zip(fields, values))
    assert record._replace(**{fields[0]: "x"}) == ("x", *values[1:])
    assert len(cls(*values[:len(fields) - len(defaults)])) == len(fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        twin = pickle.loads(pickle.dumps(record, protocol))
        assert type(twin) is cls and twin == record
    for twin in (copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record
    with pytest.raises(AttributeError):
        setattr(record, fields[0], 1)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assigning_to_a_record_raises_attribute_error(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(record, field)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_copy_is_an_equal_record(name):
    record = RECORDS[name]()
    twin = copy.copy(record)
    assert type(twin) is type(record) and repr(twin) == repr(record)
    # a gauge is equal only to itself
    assert (twin == record) is (name != "GaugeSpec")


def test_records_compare_and_hash_by_value():
    assert ScaleGrid((1, 2)) == GRID and hash(ScaleGrid((1, 2))) == hash(GRID)
    assert ScaleGrid((1.0, 3.0)) != GRID
    # a slotted record equals only its class
    assert GRID != ((1.0, 2.0),)
    assert Edge("a", "b", 1.0, 2.0) != ("a", "b", 1.0, 2.0)
    assert Edge("a", "b", 1.0, 2) == Edge("a", "b", 1.0, 2.0)
    assert len({Edge("a", "b", 1.0, 2.0), Edge("a", "b", 1.0, 2)}) == 1
    # a named tuple equals the plain tuple of its values
    assert LuxemburgResult(1.0, (0.5, 1.0), 3) == (1.0, (0.5, 1.0), 3)
    assert DirectedGraph(("a",), ()) == DirectedGraph(["a"], [], {"a": 1.0})


def test_a_table_on_an_equal_grid_is_its_own_tabulation():
    tab = table_gauge()
    assert tab.tabulated(ScaleGrid((1, 2))) is tab
    assert tab.tabulated(ScaleGrid((1.0, 3.0))) is not tab


def test_equal_topologies_share_one_listing():
    twin = FiniteTopology(("a", "b"), (1, 3))
    other = FiniteTopology(("a", "b"), (3, 2))
    assert twin == TOPOLOGY and twin is not TOPOLOGY
    doc = JoinReport(TOPOLOGY, twin, other, other, False).to_json()
    assert doc["tau_plus"] is doc["tau_minus"]
    assert doc["join"] is doc["tau_sym"]
    assert doc["tau_plus"] is not doc["join"]


def test_gauges_compare_by_identity():
    g = table_gauge()
    twin = g._replace()
    assert g == g and twin != g
    assert hash(g) == object.__hash__(g)
    assert len({g, twin}) == 2


def test_reprs_name_the_fields():
    assert repr(GRID) == "ScaleGrid(scales=(1.0, 2.0))"
    assert repr(Edge("a", "b", 1.0, 2)) == "Edge(u='a', v='b', mu=1.0, cost=2.0)"
    # fn and table stay out of a gauge's repr
    assert repr(table_gauge()) == (
        "GaugeSpec(regime=<Regime.ADDITIVE: 'additive'>, points=('a', 'b'), "
        "conorm=None, grid=ScaleGrid(scales=(1.0, 2.0)), "
        "claims_symmetric=False, claims_convex=False, name='gauge')")


def test_constructor_errors_are_unchanged():
    with pytest.raises(ValueError, match=re.escape(
            "edge measure must be positive, got 0.0")):
        Edge("a", "b", 0.0, 1.0)
    with pytest.raises(ValueError, match="scales must be strictly increasing"):
        ScaleGrid((2.0, 1.0))
    with pytest.raises(ValueError, match="one value per grid scale"):
        Profile(GRID, (1.0,))
    with pytest.raises(ValueError, match="exactly one of fn or table"):
        GaugeSpec(Regime.ADDITIVE, ("a",))


# each number a constructor reads, by the number rule of the JSON readers:
# float() read True as 1.0, and "2" and 10 ** 400 got through or raised
# something else; each row is (build from the value, the field's name)
NUMBER_FIELDS = {
    "grid": (lambda v: ScaleGrid((v, 2.0)), "grid"),
    "edge-mu": (lambda v: Edge("a", "b", v, 1.0), "edge mu"),
    "vertex-measure": (lambda v: DirectedGraph(("a",), (), {"a": v}),
                       "measure at 'a'"),
    "mass": (lambda v: DiscreteMeasureSpace(("x",), {"x": v}), "mass at 'x'"),
    "exponent": (lambda v: MusielakOrlicz.variable_exponent({"x": v}),
                 "exponent at 'x'"),
    "double-phase-p": (lambda v: MusielakOrlicz.double_phase(v, 3.0, {}), "p"),
    "double-phase-q": (lambda v: MusielakOrlicz.double_phase(1.0, v, {}), "q"),
    "double-phase-a": (lambda v: MusielakOrlicz.double_phase(
        1.0, 2.0, {"x": v}), "a at 'x'"),
    "weight": (lambda v: MusielakOrlicz.weighted(PHI, {"x": v}), "w at 'x'"),
    "lipschitz": (lambda v: PartialFunction(("a",), {"a": 1.0}, v),
                  "lipschitz"),
    "member": (lambda v: TruncatedSequenceFamily(((v, 2),), 2),
               "member value"),
    "sequence-exponent": (lambda v: TruncatedSequenceFamily(((1.0,),), v),
                          "exponent"),
    "profile-value": (lambda v: Profile(GRID, (v, 0.0)), "profile value"),
    "table-value": (lambda v: table_gauge({**TABLE, ("a", "b"): (v, 0.0)}),
                    "table value for ('a', 'b')"),
    "sublinear": (lambda v: make_sublinear(lambda d: v if d else 0.0,
                                           (0.0, 1.0)), "p(1.0)"),
}


@pytest.mark.parametrize("value", [True, "2", 10 ** 400],
                         ids=["bool", "string", "huge"])
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_constructors_read_numbers_by_the_number_rule(field, value):
    build, name = NUMBER_FIELDS[field]
    with pytest.raises(ValueError) as refused:
        build(value)
    assert str(refused.value) == (
        f"{name} is too large for a float: an integer of 1329 bits"
        if value == 10 ** 400 else
        f'{name} must be a number or "inf", got {value!r}')


def test_profiles_and_table_rows_read_inf_and_keep_the_ray():
    """"inf" is +inf in a profile and a table row, as in a document; a
    negative or NaN value keeps the range message."""
    assert Profile(GRID, ("inf", 0.0)).values == (INF, 0.0)
    assert table_gauge({**TABLE, ("a", "b"): ("inf", 0)}).table["a", "b"] \
        == (INF, 0.0)
    for bad in (-1, math.nan):
        with pytest.raises(ValueError, match=re.escape(
                f"profile value must be a nonnegative real or +inf, "
                f"got {float(bad)!r}")):
            Profile(GRID, (1.0, bad))
        with pytest.raises(ValueError, match=re.escape(
                f"table value for ('a', 'b') must be a nonnegative real or "
                f"+inf, got {float(bad)!r}")):
            table_gauge({**TABLE, ("a", "b"): (1, bad)})


DATUM = PartialFunction(("a",), {"a": 1.0}, 1.0)


def integral(masses, values):
    return make_one_sided_integral(masses, lambda t: t,
                                   {"f": values, "g": {0: 0.0}})


# each reader of a distance table, then make_one_sided_integral's masses and
# function values: (build from the value, the name in number's message, what
# "inf" builds or the message that refuses it); float() read True, "2" got
# through or ended in a TypeError, and 10 ** 400 in an OverflowError
TABLE_READERS = {
    "min-cap": (lambda v: make_min_cap({("a", "b"): v}).value("a", "b", 1e300),
                "rho row for 'a'", 1e300),
    "ratio": (lambda v: make_ratio({("a", "b"): v}).value("a", "b", 1.0),
              "p row for 'a'", 1.0 - 2.0 ** -52),
    "scaled-metric": (lambda v: make_scaled_metric(
        {("a", "b"): v}, Profile(GRID, (1.0, 0.5))).table["a", "b"],
        "d row for 'a'", (INF, INF)),
    # a left-out pair is +inf, so a -> c breaks the triangle unless a -> b
    # is +inf too
    "check": (lambda v: quasi_pseudometric_check(
        {("a", "b"): v, ("b", "c"): 1.0}, "abc").violations,
        "distance row for 'a'", ()),
    "upper": (lambda v: upper_envelope(DATUM, {("b", "a"): v}, iter("ab")),
              "distance row for 'b'", {"a": 1.0, "b": INF}),
    "lower": (lambda v: lower_envelope(DATUM, {("a", "b"): v},
                                       (p for p in "ab")),
              "distance row for 'a'", {"a": 1.0, "b": -INF}),
    "mass": (lambda v: integral({0: v}, {0: 1.0}), "mass at 0",
             "mass at 0 must be positive and finite, got inf"),
    "function-value": (lambda v: integral({0: 1.0}, {0: v}),
                       "value of 'f' at 0",
                       "value of 'f' at 0 must be finite, got inf"),
}


@pytest.mark.parametrize("value", [True, "2", Fraction(1, 2), Decimal("1"),
                                   10 ** 400, "inf"],
                         ids=["bool", "string", "fraction", "decimal", "huge",
                              "inf"])
@pytest.mark.parametrize("reader", TABLE_READERS)
def test_distance_tables_read_numbers_by_the_number_rule(reader, value):
    build, name, on_inf = TABLE_READERS[reader]
    if value == "inf" and not isinstance(on_inf, str):
        assert build(value) == on_inf
        return
    with pytest.raises(ValueError) as refused:
        build(value)
    assert str(refused.value) == (
        on_inf if value == "inf" else
        f"{name} is too large for a float: an integer of 1329 bits"
        if value == 10 ** 400 else
        f'{name} must be a number or "inf", got {value!r}')


def closed_form(v):
    return GaugeSpec(Regime.ADDITIVE, ("a", "b"),
                     fn=lambda x, y, t: v if x != y else 0)


def near(x, y):
    return 0.0


# each reader of what a caller's function returns: (build from the value
# the function returns, the name in number's message); float() read True,
# "2", Fraction(1, 2) and Decimal("1"), or they were compared raw, and
# 10 ** 400 ended in an OverflowError
FUNCTION_READERS = {
    "closed-form-matrix": (lambda v: closed_form(v).matrix(1.0),
                           "gauge value"),
    "closed-form-value": (lambda v: closed_form(v).value("a", "b", 1.0),
                          "gauge value"),
    "rho-zero": (lambda v: make_classical_modular(lambda d: v, (0.0, 1.0)),
                 "rho(0)"),
    # rho(1) and rho(-1), which the symmetry claim compares
    "rho-symmetry": (lambda v: make_classical_modular(
        lambda d: v if d else 0, (0.0, 1.0)), "rho value"),
    # rho(0.25), on the convexity ray only
    "rho-ray": (lambda v: make_classical_modular(
        lambda d: v if abs(d) == 0.25 else abs(d), (0.0, 1.0)), "rho value"),
    "p-zero": (lambda v: make_sublinear(lambda d: v, (0.0, 1.0)), "p(0)"),
    "phi-zero": (lambda v: make_one_sided_integral(
        {0: 1.0}, lambda t: v, {"f": {0: 1.0}}), "Phi(0)"),
    "phi-sum": (lambda v: make_one_sided_integral(
        {0: 1.0}, lambda t: v if t else 0, {"f": {0: 1.0}, "g": {0: 0.0}}),
        "Phi value"),
    "scale-map": (lambda v: luxemburg_infimum(lambda lam: v),
                  "value_at value"),
    "image-metric": (lambda v: transport_total_boundedness(
        "ab", "ab", near, lambda x, y: v, 1.0, 1.0), "image_metric value"),
    "source-metric": (lambda v: transport_total_boundedness(
        "ab", "ab", lambda x, y: v, near, 1.0, 1.0), "source_metric value"),
}


@pytest.mark.parametrize("value", [True, "2", Fraction(1, 2), Decimal("1"),
                                   10 ** 400],
                         ids=["bool", "string", "fraction", "decimal",
                              "huge"])
@pytest.mark.parametrize("reader", FUNCTION_READERS)
def test_function_values_read_numbers_by_the_number_rule(reader, value):
    build, name = FUNCTION_READERS[reader]
    with pytest.raises(ValueError) as refused:
        build(value)
    assert str(refused.value) == (
        f"{name} is too large for a float: an integer of 1329 bits"
        if value == 10 ** 400 else
        f'{name} must be a number or "inf", got {value!r}')


@pytest.mark.parametrize("masses, values, message", [
    ({0: 1.0, 1: 1.0}, {0: 1.0}, "function 'f' misses sample ids [1]"),
    ({0: 1.0}, {0: 1.0, 5: 3.0}, "value of 'f' for unknown sample id 5"),
], ids=["missing", "unknown"])
def test_one_sided_integral_functions_name_exactly_the_sample_ids(
        masses, values, message):
    """A raw KeyError, or a value at an id with no mass silently left out."""
    with pytest.raises(ValueError) as refused:
        make_one_sided_integral(masses, lambda t: t,
                                {"f": values, "g": dict.fromkeys(masses, 0.0)})
    assert str(refused.value) == message


def test_replace_goes_through_the_checks():
    with pytest.raises(ValueError, match="edge measure must be positive"):
        Edge("a", "b", 1.0, 2.0)._replace(mu=-1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        GRID._replace(scales=(2.0, 1.0))
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        TruncatedSequenceFamily(((1.0,),), 2.0)._replace(p=0.5)
    # a copy that changes a checked field is normalized like a new one
    assert Edge("a", "b", 1.0, 2.0)._replace(cost=3).cost == 3.0
    assert repr(PartialFunction(("a",), {"a": 0.0}, 1.0)._replace(
        domain=["a"])) == repr(PartialFunction(("a",), {"a": 0.0}, 1.0))


def test_replacing_a_table_value_raises_what_building_it_raises():
    bad = dict(TABLE)
    bad["a", "b"] = (-1, 1.0)
    with pytest.raises(ValueError) as built:
        table_gauge(bad)
    with pytest.raises(ValueError) as replaced:
        table_gauge()._replace(table=bad)
    assert str(replaced.value) == str(built.value)
    assert str(built.value).startswith("table value for ('a', 'b')")


def test_replace_rebuilds_the_point_index_and_the_columns():
    g = table_gauge()
    flipped = g._replace(points=("b", "a"))
    assert [flipped.index(p) for p in ("a", "b")] == [1, 0]
    assert flipped.matrix(1.0) == ((0.0, 1.0), (2.0, 0.0))
    halved = g._replace(table={k: tuple(v / 2 for v in row)
                               for k, row in TABLE.items()})
    assert halved.matrix(1.0) == ((0.0, 1.0), (0.5, 0.0))
    assert g.matrix(1.0) == ((0.0, 2.0), (1.0, 0.0))
    closed = make_min_cap({("a", "b"): 1.0, ("b", "a"): 2.0}, grid=GRID)
    assert closed._replace(name="renamed").matrix(1.5) == closed.matrix(1.5)


def test_traced_methods_live_in_their_own_class():
    assert isinstance(vars(DiscreteMeasureSpace)["from_json"], classmethod)
    assert callable(vars(FiniteTopology)["to_json"])
    assert callable(vars(GaugeSpec)["value"])


def test_axiom_report_keeps_its_default_notes():
    report = AxiomReport(("zero-self",), ())
    assert report.notes == () and report.ok
