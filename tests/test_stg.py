"""Unit tests for the STG model, the .g parser/writer and consistency."""

import re

import pytest

from repro.stg import (
    STG,
    STGError,
    SignalTransition,
    SignalType,
    check_consistency,
    paper_example,
    parse_g,
    write_g,
)
from repro.stg.parser import ParseError


def test_signal_transition_parsing():
    t = SignalTransition.parse("req+/2")
    assert t.signal == "req" and t.is_rising and t.index == 2
    assert t.label() == "req+/2"
    assert SignalTransition.parse("a-").target_value == 0
    with pytest.raises(Exception):
        SignalTransition.parse("++")


def test_signal_declaration_and_types():
    stg = STG("t")
    stg.add_signal("a", SignalType.INPUT, initial=0)
    stg.add_signal("x", SignalType.OUTPUT, initial=1)
    stg.add_signal("i", SignalType.INTERNAL, initial=0)
    assert stg.input_signals == ["a"]
    assert stg.implementable_signals == ["x", "i"]
    assert stg.initial_code() == (0, 1, 0)
    with pytest.raises(STGError):
        stg.add_signal("a", SignalType.OUTPUT)


def test_transition_for_undeclared_signal_rejected():
    stg = STG()
    with pytest.raises(STGError):
        stg.add_transition("a+")


def test_duplicate_labels_get_instance_indices():
    stg = STG()
    stg.add_signal("a", SignalType.OUTPUT)
    first = stg.add_transition("a+")
    second = stg.add_transition("a+")
    assert first == "a+"
    assert second == "a+/1"
    assert stg.label_of(second).signal == "a"
    assert stg.rising_transitions("a") == [first, second]


def test_connect_creates_implicit_place():
    stg = STG()
    stg.add_signal("a", SignalType.OUTPUT, initial=0)
    plus = stg.add_transition("a+")
    minus = stg.add_transition("a-")
    place = stg.connect(plus, minus, tokens=0)
    assert stg.net.place_preset(place) == {plus}
    assert stg.net.place_postset(place) == {minus}


def test_next_code_and_consistency_helper():
    stg = paper_example()
    code = stg.initial_code()
    assert stg.next_code(code, "a+") == (1, 0, 0)
    assert stg.code_consistent_with(code, "a+")
    assert not stg.code_consistent_with((1, 0, 0), "a+")


def test_infer_initial_state():
    stg = paper_example()
    stg._initial_values.clear()
    inferred = stg.infer_initial_state()
    assert inferred == {"a": 0, "b": 0, "c": 0}


def test_check_consistency_on_paper_example():
    report = check_consistency(paper_example())
    assert report.consistent
    assert report.num_states == 8


def test_check_consistency_detects_violation():
    stg = STG("bad")
    stg.add_signal("a", SignalType.OUTPUT, initial=0)
    first = stg.add_transition("a+")
    second = stg.add_transition("a+")
    place = stg.connect(first, second)
    start = stg.add_place("start", tokens=1)
    stg.add_arc(start, first)
    report = check_consistency(stg)
    assert not report.consistent


VME_LIKE = """
.model small
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.initial_state req=0 ack=0
.end
"""


def test_parse_simple_g():
    stg = parse_g(VME_LIKE)
    assert stg.name == "small"
    assert stg.input_signals == ["req"]
    assert stg.output_signals == ["ack"]
    assert len(stg.transitions) == 4
    assert stg.initial_code() == (0, 0)
    report = check_consistency(stg)
    assert report.consistent
    assert report.num_states == 4


def test_parse_explicit_places_and_choice():
    text = """
.model choice
.inputs a b
.outputs x
.graph
p0 a+ b+
a+ x+/1
b+ x+/2
x+/1 p1
x+/2 p1
p1 x-
x- a-
x- b-
a- p0
b- p0
.marking { p0 }
.initial_state a=0 b=0 x=0
.end
"""
    stg = parse_g(text)
    assert len(stg.transitions_of_signal("x")) == 3
    assert stg.net.has_place("p0")


def _small_with(initial_state="req=0 ack=0", arc="ack- req+", marking="<ack-,req+>"):
    return VME_LIKE.replace("req=0 ack=0", initial_state).replace(
        "ack- req+", arc
    ).replace("<ack-,req+>", marking)


@pytest.mark.parametrize(
    "initial_state, bad_token",
    [("req=x ack=0", "req=x"), ("req= ack=0", "req="), ("req=0 ack=1.5", "ack=1.5")],
)
def test_parse_rejects_malformed_initial_value(initial_state, bad_token):
    with pytest.raises(ParseError, match=re.escape(repr(bad_token))):
        parse_g(_small_with(initial_state=initial_state))


def test_parse_rejects_malformed_marking_count():
    text = _small_with(arc="ack- p0\np0 req+", marking="p0=x")
    with pytest.raises(ParseError, match="'p0=x'"):
        parse_g(text)


@pytest.mark.parametrize("brace", ["{", "}"])
def test_parse_rejects_brace_as_place_name(brace):
    text = _small_with(arc="ack- %s\n%s req+" % (brace, brace), marking=brace)
    with pytest.raises(ParseError, match="place name"):
        parse_g(text)


def test_writer_roundtrip_preserves_behaviour():
    stg = paper_example()
    text = write_g(stg)
    parsed = parse_g(text)
    assert sorted(parsed.signals) == sorted(stg.signals)
    original = check_consistency(stg)
    roundtrip = check_consistency(parsed)
    assert roundtrip.consistent
    assert roundtrip.num_states == original.num_states
    # Same set of reachable binary codes.
    original_codes = {tuple(code[stg.signal_index(s)] for s in sorted(stg.signals))
                      for code in original.codes.values()}
    roundtrip_codes = {tuple(code[parsed.signal_index(s)] for s in sorted(parsed.signals))
                       for code in roundtrip.codes.values()}
    assert original_codes == roundtrip_codes


def test_statistics():
    stats = paper_example().statistics()
    assert stats["signals"] == 3
    assert stats["places"] == 9
    assert stats["transitions"] == 8
