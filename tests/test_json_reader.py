"""The document reader against json.loads: `cli._loads` decodes with
_json's C scanner and json's settings, and must give what
json.loads(text, object_pairs_hook=hook) gives on every text, the same
value or the same exception with the same text."""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasimod.cli import InputError, _loads

SRC = Path(__file__).resolve().parent.parent / "src"

# json's whitespace, then what str.isspace or Unicode call whitespace and
# json does not
SPACE = " \t\n\r"
FOREIGN = "\f\v\x85\u00a0\u2028\ufeff"


def unique_keys(pairs):
    """The reader's repeated-key refusal: an InputError passes through."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise InputError(f"repeated JSON object key in {pairs!r}")
    return obj


# scalars as their JSON text: NaN and the infinities among the floats and
# also on their own, and integers either side of the 4,300-digit limit
SCALARS = st.one_of(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=4)).map(json.dumps),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "-0", "-0.0", "1e400"]),
    st.builds(lambda sign, n: sign + "7" * n, st.sampled_from(["", "-"]),
              st.integers(4295, 4305)))
# few key spellings, so that objects repeat keys
KEYS = st.one_of(st.sampled_from(["a", "b"]), st.text(max_size=3)).map(json.dumps)
# an array is a list of its items, an object a tuple of its (key, value) pairs
TREES = st.recursive(SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(st.tuples(KEYS, kids), max_size=4).map(tuple)), max_leaves=10)
GARBAGE = ["x", "]", "}", ",", "0", " 1", '"', "\f", "\x00", "nul", "{}", "[]"]


@st.composite
def texts(draw):
    """A tree's text with whitespace drawn at each token boundary (in one
    text of four also json's foreign whitespace), then maybe cut short or
    followed by garbage."""
    alphabet = SPACE + FOREIGN if draw(st.integers(0, 3)) == 0 else SPACE

    def space():
        return draw(st.text(st.sampled_from(alphabet), max_size=2))

    def dump(node):
        if isinstance(node, str):
            return node
        if isinstance(node, list):
            items = [space() + dump(kid) + space() for kid in node]
            return "[" + (",".join(items) or space()) + "]"
        items = [space() + key + space() + ":" + space() + dump(kid) + space()
                 for key, kid in node]
        return "{" + (",".join(items) or space()) + "}"

    text = space() + dump(draw(TREES)) + space()
    end = draw(st.integers(0, 5))
    if end == 0:
        text = text[:draw(st.integers(0, len(text)))]
    elif end == 1:
        text += draw(st.sampled_from(GARBAGE))
    return text


def typed(value):
    """`value` with each scalar's type, key order kept and floats by repr,
    so that 1 and 1.0, -0.0 and 0.0 differ and NaN equals NaN."""
    if isinstance(value, dict):
        return dict, [(k, typed(v)) for k, v in value.items()]
    if isinstance(value, list):
        return list, [typed(v) for v in value]
    return type(value), repr(value) if isinstance(value, float) else value


def outcome(read, text):
    try:
        return "value", typed(read(text))
    except Exception as exc:
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, database=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=texts())
def test_the_reader_reads_each_text_as_json_loads(text):
    want = outcome(lambda t: json.loads(t, object_pairs_hook=unique_keys), text)
    assert outcome(lambda t: _loads(t, unique_keys), text) == want, text
    assert outcome(_loads, text) == outcome(json.loads, text), text


def test_a_refusal_before_json_is_loaded_is_json_s_error():
    # json.decoder is not loaded under -S until the reader falls back, and
    # there the C scanner of 3.10 and 3.11 raises SystemError instead
    code = ("import sys\nfrom quasimod.cli import _loads\n"
            "assert 'json' not in sys.modules\n"
            "for text in ('{\"a\": ', '[1] x', '\\f1', '\"a'):\n"
            "    try:\n        _loads(text)\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__, exc)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    want = []
    for text in ('{"a": ', "[1] x", "\f1", '"a'):
        try:
            json.loads(text)
        except json.JSONDecodeError as exc:
            want.append(f"JSONDecodeError {exc}")
    assert done.stdout.splitlines() == want
