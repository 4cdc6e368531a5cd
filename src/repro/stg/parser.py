"""Reader for the ``.g`` (astg) Signal Transition Graph format.

The ``.g`` format is the de-facto interchange format used by SIS, Petrify,
punf and Workcraft for asynchronous controller specifications, and the
benchmark names of Table 1 refer to files in this format.  The subset
implemented here covers everything those benchmarks use:

* ``.model`` / ``.name``  -- specification name,
* ``.inputs`` / ``.outputs`` / ``.internal`` / ``.dummy`` -- signal declarations,
* ``.graph`` ... ``.marking { ... }`` ... ``.end`` -- arcs and initial marking,
* transition labels ``a+``, ``a-``, ``a+/2``; explicit places; implicit places
  written as ``<a+,b->`` inside the marking,
* an optional non-standard ``.initial_state`` line giving initial signal
  values (otherwise they are inferred from the behaviour).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..obs import current_tracer
from .signals import SignalError, SignalTransition, SignalType
from .stg import STG, STGError

__all__ = ["parse_g", "parse_g_file", "ParseError"]


class ParseError(ValueError):
    """Raised when a ``.g`` description cannot be parsed."""


_IMPLICIT_RE = re.compile(r"^<(?P<src>[^,<>]+),(?P<dst>[^,<>]+)>$")


def parse_g_file(path: str) -> STG:
    """Parse a ``.g`` file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_g(handle.read(), name=_basename(path))


def parse_g(text: str, name: Optional[str] = None) -> STG:
    """Parse a ``.g`` description from a string."""
    with current_tracer().span("parse", source=name or "stg") as span:
        return _parse_g(text, name, span)


def _parse_g(text: str, name: Optional[str], span) -> STG:
    lines = _logical_lines(text)
    model_name = name or "stg"
    declarations: List[Tuple[str, List[str]]] = []
    graph_lines: List[List[str]] = []
    marking_tokens: List[str] = []
    initial_state_tokens: List[str] = []
    in_graph = False

    for line in lines:
        tokens = line.split()
        keyword = tokens[0]
        if keyword in (".model", ".name"):
            if len(tokens) > 1:
                model_name = tokens[1]
        elif keyword in (".inputs", ".outputs", ".internal", ".dummy"):
            declarations.append((keyword, tokens[1:]))
        elif keyword == ".initial_state":
            initial_state_tokens.extend(tokens[1:])
        elif keyword == ".graph":
            in_graph = True
        elif keyword == ".marking":
            in_graph = False
            marking_tokens.extend(_parse_marking_tokens(line))
        elif keyword == ".capacity":
            continue
        elif keyword == ".end":
            in_graph = False
        elif keyword.startswith("."):
            raise ParseError("unsupported directive %r" % keyword)
        else:
            if not in_graph:
                raise ParseError("arc line %r outside .graph section" % line)
            graph_lines.append(tokens)

    stg = STG(model_name)
    dummies: Set[str] = set()
    for keyword, names in declarations:
        if keyword == ".inputs":
            for signal in names:
                stg.add_signal(signal, SignalType.INPUT)
        elif keyword == ".outputs":
            for signal in names:
                stg.add_signal(signal, SignalType.OUTPUT)
        elif keyword == ".internal":
            for signal in names:
                stg.add_signal(signal, SignalType.INTERNAL)
        else:
            dummies.update(names)

    node_kind: Dict[str, str] = {}
    for tokens in graph_lines:
        for token in tokens:
            if token not in node_kind:
                node_kind[token] = _classify(token, stg, dummies)
                if node_kind[token] == "place" and ("{" in token or "}" in token):
                    raise ParseError("invalid place name %r in .graph" % token)

    # Create transitions first (in order of appearance), then places.
    for tokens in graph_lines:
        for token in tokens:
            if node_kind[token] == "transition" and not stg.net.has_transition(token):
                _add_transition(stg, token, dummies)
    for tokens in graph_lines:
        for token in tokens:
            if node_kind[token] == "place" and not stg.net.has_place(token):
                stg.add_place(token)

    implicit_places: Dict[Tuple[str, str], str] = {}
    for tokens in graph_lines:
        source = tokens[0]
        for target in tokens[1:]:
            _add_edge(stg, source, target, node_kind, implicit_places)

    _apply_marking(stg, marking_tokens, implicit_places)
    _apply_initial_state(stg, initial_state_tokens)
    if span.live:
        span.gauge("signals", stg.num_signals)
        span.gauge("transitions", len(stg.net.transitions))
        span.gauge("places", len(stg.net.places))
    return stg


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _basename(path: str) -> str:
    name = path.replace("\\", "/").rsplit("/", 1)[-1]
    return name[:-2] if name.endswith(".g") else name


def _logical_lines(text: str) -> List[str]:
    lines: List[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _parse_marking_tokens(line: str) -> List[str]:
    body = line[len(".marking"):].strip()
    if body.startswith("{"):
        body = body[1:]
    if body.endswith("}"):
        body = body[:-1]
    # Implicit place tokens contain commas inside <...>; protect them.
    tokens: List[str] = []
    for token in re.findall(r"<[^>]*>(?:=\d+)?|[^\s]+", body):
        token = token.strip()
        if token:
            tokens.append(token)
    return tokens


def _classify(token: str, stg: STG, dummies: Set[str]) -> str:
    if token in dummies:
        return "transition"
    try:
        transition = SignalTransition.parse(token)
    except SignalError:
        return "place"
    if transition.signal in stg.signals:
        return "transition"
    return "place"


def _add_transition(stg: STG, token: str, dummies: Set[str]) -> None:
    if token in dummies:
        stg.add_transition(None, name=token)
    else:
        stg.add_transition(SignalTransition.parse(token), name=token)


def _add_edge(
    stg: STG,
    source: str,
    target: str,
    node_kind: Dict[str, str],
    implicit_places: Dict[Tuple[str, str], str],
) -> None:
    source_kind = node_kind[source]
    target_kind = node_kind[target]
    if source_kind == "transition" and target_kind == "transition":
        place = stg.connect(source, target)
        implicit_places[(source, target)] = place
    elif source_kind != target_kind:
        stg.add_arc(source, target)
    else:
        raise ParseError("arc between two places: %r -> %r" % (source, target))


def _apply_marking(
    stg: STG,
    marking_tokens: Sequence[str],
    implicit_places: Dict[Tuple[str, str], str],
) -> None:
    marked: List[str] = []
    for raw in marking_tokens:
        token = raw
        tokens_count = 1
        if "=" in token and not token.startswith("<"):
            token, count_text = token.split("=", 1)
            tokens_count = _token_int(count_text, raw)
        elif token.startswith("<") and token.endswith(">") is False and "=" in token:
            token, count_text = token.rsplit("=", 1)
            tokens_count = _token_int(count_text, raw)
        match = _IMPLICIT_RE.match(token)
        if match:
            key = (match.group("src"), match.group("dst"))
            place = implicit_places.get(key)
            if place is None:
                raise ParseError("marking refers to unknown implicit place %r" % token)
        else:
            place = token
            if not stg.net.has_place(place):
                raise ParseError("marking refers to unknown place %r" % token)
        for _ in range(tokens_count):
            marked.append(place)
    if marked:
        counts: Dict[str, int] = {}
        for place in marked:
            counts[place] = counts.get(place, 0) + 1
        for place in stg.net.places:
            stg.net.set_initial_tokens(place, counts.get(place, 0))


def _token_int(text: str, token: str) -> int:
    """The integer after ``=`` in ``token``, or a :class:`ParseError`."""
    try:
        return int(text)
    except ValueError:
        raise ParseError("malformed value %r in %r" % (text, token)) from None


def _apply_initial_state(stg: STG, tokens: Sequence[str]) -> None:
    for token in tokens:
        if "=" in token:
            signal, value = token.split("=", 1)
            stg.set_initial_value(signal.strip(), _token_int(value, token))
        elif token.startswith("!"):
            stg.set_initial_value(token[1:], 0)
        else:
            stg.set_initial_value(token, 1)
