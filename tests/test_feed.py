import errno
import hashlib
import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import _counting_forks, _cpus, _failing_forks, _has_children, _started_workers
from lobflow import checks, feed, stats
from lobflow.feed import EventKind, Side

# canonical lines, as `serialize_event` writes them
_EVENT_LINES = st.builds(
    lambda ts, seq, kind, side, price, size, size_str, oid: feed.serialize_event(feed.OrderEvent(
        ts, seq, kind, side, None if kind is EventKind.MARKET else price, size, oid, size_str)),
    st.integers(0, 2 ** 48), st.integers(1, 2 ** 48), st.sampled_from(list(EventKind)),
    st.sampled_from(list(Side)), st.integers(1, 10 ** 9), st.floats(1e-9, 1e9),
    st.none() | st.from_regex(r"[0-9]{1,4}(\.[0-9]{1,4})?", fullmatch=True),
    st.from_regex(r"o[0-9]{1,6}", fullmatch=True) | st.text(max_size=4))
# values at and around every bound the parser checks
_INT64ISH = (st.integers(-10, 10 ** 13)
             | st.sampled_from([2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 10 ** 17, 10 ** 18,
                                -10 ** 18, 10 ** 19])
             | st.integers())
_SIZES = (st.floats() | st.integers(-3, 10 ** 400)
          | st.from_regex(r"-?[0-9]{1,4}(\.[0-9]{1,4})?([eE][-+]?[0-9]{1,3})?", fullmatch=True)
          | st.text(max_size=6))
# compact JSON objects with the wire keys in wire order, a price on any
# kind, values near every bound and ids with and without escapes
_NEAR_LINES = st.builds(
    lambda ts, seq, kind, side, price, size, oid, ascii: json.dumps(
        {"ts": ts, "seq": seq, "kind": kind, "side": side,
         **({} if price is None else {"price": price}), "size": size, "id": oid},
        separators=(",", ":"), ensure_ascii=ascii),
    _INT64ISH, _INT64ISH, st.sampled_from(["limit", "market", "cancel"]),
    st.sampled_from(["buy", "sell"]), st.none() | _INT64ISH, _SIZES, st.text(max_size=6),
    st.booleans())
# characters that matter to the JSON grammar and to the block path's regex
_CHARS = st.sampled_from(list('0123456789-+.eE"\\{}[],: \t\r\x00\x1f\x7fabcdeflmnrstuyzNI')
                         + ["\u00e9", "\u0661", "\u2028", "\ufeff"]) | st.characters()


class TestParse:
    def test_limit_buy(self):
        line = '{"ts":1510000000000,"seq":1,"kind":"limit","side":"buy","price":745010,"size":0.5,"id":"a1"}'
        ev = feed.parse_event(line)
        assert ev.kind is EventKind.LIMIT
        assert ev.side is Side.BUY
        assert ev.price_ticks == 745010
        assert ev.size == 0.5
        assert ev.order_id == "a1"

    def test_market_has_no_price(self):
        line = '{"ts":1510000000000,"seq":2,"kind":"market","side":"sell","size":1.0,"id":"a2"}'
        ev = feed.parse_event(line)
        assert ev.kind is EventKind.MARKET
        assert ev.price_ticks is None

    def test_market_with_price_rejected(self):
        line = '{"ts":1,"seq":1,"kind":"market","side":"buy","price":7,"size":1.0,"id":"x"}'
        with pytest.raises(feed.SchemaViolation):
            feed.parse_event(line)

    def test_size_as_decimal_string(self):
        line = '{"ts":1,"seq":1,"kind":"limit","side":"buy","price":10,"size":"0.5","id":"x"}'
        ev = feed.parse_event(line)
        assert ev.size == 0.5
        assert feed.serialize_event(ev) == line

    @pytest.mark.parametrize("mutate,exc", [
        (lambda o: o.update(extra=1), feed.SchemaViolation),
        (lambda o: o.pop("id"), feed.SchemaViolation),
        (lambda o: o.update(kind="stop"), feed.SchemaViolation),
        (lambda o: o.update(side="mid"), feed.SchemaViolation),
        (lambda o: o.update(size=0), feed.InvariantViolation),
        (lambda o: o.update(size=-1.5), feed.InvariantViolation),
        (lambda o: o.update(price=0), feed.InvariantViolation),
        (lambda o: o.update(ts="yesterday"), feed.SchemaViolation),
        (lambda o: o.pop("price"), feed.SchemaViolation),
        (lambda o: o.update(kind=[1]), feed.SchemaViolation),
        (lambda o: o.update(side={}), feed.SchemaViolation),
        (lambda o: o.update(size=10 ** 400), feed.InvariantViolation),
        (lambda o: o.update(ts=99999999999999999999999), feed.SchemaViolation),
        (lambda o: o.update(seq=-2 ** 63 - 1), feed.SchemaViolation),
        (lambda o: o.update(price=2 ** 63), feed.SchemaViolation),
    ])
    def test_bad_records(self, mutate, exc):
        obj = {"ts": 1, "seq": 1, "kind": "limit", "side": "buy",
               "price": 10, "size": 1.0, "id": "x"}
        mutate(obj)
        with pytest.raises(exc):
            feed.parse_event(json.dumps(obj))

    @pytest.mark.parametrize("mutate,message", [
        (lambda o: o.update(extra=1, zz=2), "unknown fields: ['extra', 'zz']"),
        (lambda o: (o.pop("id"), o.pop("seq")), "missing fields: ['id', 'seq']"),
        (lambda o: o.update(seq=True), "seq must be an integer"),
        (lambda o: o.update(kind="stop"), "bad kind 'stop'"),
        (lambda o: o.update(side=None), "bad side None"),
        (lambda o: o.update(kind="cancel", price=1.5), "price must be an integer tick count"),
        (lambda o: o.update(price=-3), "non-positive price -3"),
        (lambda o: o.update(size="1/2"), "bad size string '1/2'"),
        (lambda o: o.update(size=[1]), "size must be number or string, got list"),
        (lambda o: o.update(size="-0.5"), "size must be > 0, got '-0.5'"),
        (lambda o: o.update(id=7), "id must be a string"),
    ])
    def test_rejection_messages(self, mutate, message):
        obj = {"ts": 1, "seq": 1, "kind": "limit", "side": "buy",
               "price": 10, "size": 1.0, "id": "x"}
        mutate(obj)
        with pytest.raises(feed.SchemaViolation) as info:
            feed.parse_event(json.dumps(obj))
        assert str(info.value) == message

    @pytest.mark.parametrize("text", ["1_000", " 2 ", "2\n", "\u0661\u0662", "+1", ".5", "5.",
                                      "1e", "0x1", "01", "nan", "inf", ""])
    def test_size_string_must_be_a_json_number(self, text):
        # float() would take each of these; the wire's size string is a
        # JSON number, on the canonical line and on any other spelling
        lines = {_line(size=json.dumps(text)), _line(size=json.dumps(text, ensure_ascii=False))}
        for line in lines | {line.replace(",", ", ") for line in lines}:
            with pytest.raises(feed.SchemaViolation) as info:
                feed.parse_event(line)
            assert str(info.value) == f"bad size string {text!r}"

    def test_not_json(self):
        with pytest.raises(feed.MalformedRecord):
            feed.parse_event("{nope")

    @pytest.mark.parametrize("line", ["[" * 100_000 + "]" * 100_000,
                                      '{"ts":' + "[" * 100_000 + "]" * 100_000 + "}"],
                             ids=["array", "field"])
    def test_deeply_nested_json(self, line):
        with pytest.raises(feed.MalformedRecord, match="nested too deeply"):
            feed.parse_event(line)

    def test_int64_bounds_accepted(self):
        line = ('{"ts":9223372036854775807,"seq":-9223372036854775808,"kind":"limit",'
                '"side":"buy","price":9223372036854775807,"size":1.0,"id":"x"}')
        ev = feed.parse_event(line)
        assert (ev.timestamp_ms, ev.seq, ev.price_ticks) == (2 ** 63 - 1, -2 ** 63, 2 ** 63 - 1)

    def test_invariant_violation_is_schema_violation(self):
        assert issubclass(feed.InvariantViolation, feed.SchemaViolation)


def _outcome(line):
    """What `parse_event` makes of `line`: the event's full repr (every
    field, `size_str` included), or the error's type and message."""
    try:
        return repr(feed.parse_event(line))
    except feed.FeedError as e:
        return type(e), str(e)


def _block_outcome(line):
    """What a block of the one line makes of it: its event's full repr,
    or None where the per-line path must read it."""
    columns = feed._columns(line, 1)
    return None if columns is None else repr(next(feed._events(columns)))


def _line(size="1.5", price=',"price":10', kind="limit", oid='"x"', ts="1", seq="1"):
    return (f'{{"ts":{ts},"seq":{seq},"kind":"{kind}","side":"buy"{price},"size":{size},'
            f'"id":{oid}}}')


_CANONICAL_LINE = _line()


class TestFastPath:
    """Blocks of canonical lines skip `json.loads`; a block of one line
    reads it as `parse_event`, which is `json.loads` alone, does."""

    def test_generated_lines_take_the_fast_path(self, monkeypatch, noise_lines):
        cfg = feed.GeneratorConfig(n_events=3000, planted=feed.PLANTED_LAST_EVENT_SIDE)
        streams = [noise_lines, list(feed.generate_synthetic(cfg, seed=5))]
        kinds = {json.loads(line)["kind"] for line in streams[0] + streams[1]}
        assert kinds == {"limit", "market", "cancel"}

        def no_json(line):
            raise AssertionError(f"general path taken by {line!r}")
        monkeypatch.setattr(feed, "json", SimpleNamespace(loads=no_json))
        for lines in streams:
            assert len(list(feed.iter_events(lines))) == len(lines)

    @pytest.mark.parametrize("line,fast", [
        (_CANONICAL_LINE, True),
        (_line(kind="market", price=""), True),
        (_line(kind="cancel"), True),
        # sizes
        (_line(size="1e-3"), True),
        (_line(size="1.5E+2"), True),
        (_line(size="2"), True),
        (_line(size="-0.0"), False),
        (_line(size="0"), False),
        (_line(size='"0.5"'), True),
        (_line(size='"nan"'), False),
        (_line(size='"inf"'), False),
        (_line(size='"1_0"'), False),
        (_line(size='" 2.5 "'), False),
        (_line(size='"1/2"'), False),
        (_line(size='"1e400"'), False),
        (_line(size="1" * 400), False),
        (_line(size="1" * 400 + ".5"), False),
        (_line(size=f'"{"1" * 400}"'), False),
        (_line(size="1" * 5000), False),
        (_line(size="1e400"), False),
        (_line(size="NaN"), False),
        (_line(size="Infinity"), False),
        (_line(size=".5"), False),
        (_line(size="5."), False),
        (_line(size="+5"), False),
        (_line(size="true"), False),
        # leading zeros and non-ASCII digits
        (_line(ts="01"), False),
        (_line(size="01.5"), False),
        (_line(price=',"price":007'), False),
        (_line(ts="-0"), True),
        (_line(seq='"1"'), False),
        (_line(seq="\u0661"), False),
        (_line(ts="1\u0661"), False),
        (_line(price=',"price":1\u0661'), False),
        (_line(size="1\u0661"), False),
        # int64: 18 digits take the block path, the bounds the per-line one
        (_line(ts="9" * 18, seq="-" + "9" * 18, price=',"price":' + "9" * 18), True),
        (_line(ts=str(2 ** 63 - 1), seq=str(-2 ** 63), price=f',"price":{2 ** 63 - 1}'), False),
        (_line(ts=str(2 ** 63)), False),
        (_line(ts=str(-2 ** 63 - 1)), False),
        (_line(seq=str(2 ** 63)), False),
        (_line(seq=str(-2 ** 63 - 1)), False),
        (_line(price=f',"price":{2 ** 63}'), False),
        # price against kind
        (_line(price=',"price":0'), False),
        (_line(price=',"price":-3'), False),
        (_line(price=',"price":1.5'), False),
        (_line(kind="market"), False),
        (_line(price=""), False),
        (_line(kind="cancel", price=""), False),
        (_line(kind="stop"), False),
        (_line(kind="Limit"), False),
        # ids
        (_line(oid='"a\\u00e9"'), False),
        (_line(oid='"a\u00e9\u2028"'), True),
        (_line(oid='"a\\"b"'), False),
        (_line(oid='"a\\\\"'), False),
        (_line(oid='"a\x00"'), False),
        (_line(oid='"a\x1f"'), False),
        (_line(oid='"a\x7f"'), True),
        (_line(oid='""'), True),
        (_line(oid="7"), False),
        # other spellings of one object
        ('{"ts":2,' + _CANONICAL_LINE[1:], False),
        (_CANONICAL_LINE[:-1] + ',"id":"y"}', False),
        ('{"seq":1,"ts":1' + _CANONICAL_LINE[len('{"ts":1,"seq":1'):], False),
        (" " + _CANONICAL_LINE + " ", False),
        (_CANONICAL_LINE + "\r", False),
        (_CANONICAL_LINE + "\n", False),
        (_CANONICAL_LINE.replace(",", ", "), False),
        (_CANONICAL_LINE.replace(":", ": "), False),
        ("\ufeff" + _CANONICAL_LINE, False),
        (_CANONICAL_LINE + "{}", False),
        (_CANONICAL_LINE[:-1] + ',"extra":1}', False),
        (_CANONICAL_LINE[:-1], False),
        ("", False),
    ])
    def test_edge_cases_match_the_general_path(self, line, fast):
        block = _block_outcome(line)
        assert (block is not None) == fast
        if fast:
            assert block == _outcome(line)
        # a block of the one line reads as the line does on its own
        assert _yielded(feed.iter_events([line])) == _per_line([line])

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(line=_EVENT_LINES | _NEAR_LINES, data=st.data())
    def test_one_character_edits_match_the_general_path(self, line, data):
        i = data.draw(st.integers(0, len(line)), label="at")
        edit = data.draw(st.sampled_from(["keep", "insert", "delete", "replace"]), label="edit")
        if edit != "keep":
            ch = "" if edit == "delete" else data.draw(_CHARS, label="char")
            line = line[:i] + ch + line[i + (edit != "insert"):]
        block = _block_outcome(line)
        assert block is None or block == _outcome(line)
        assert _yielded(feed.iter_events([line])) == _per_line([line])


class TestOrderEvent:
    def test_equality_and_hash_ignore_size_str(self):
        a = feed.OrderEvent(1, 2, EventKind.LIMIT, Side.BUY, 10, 0.5, "x")
        b = feed.OrderEvent(1, 2, EventKind.LIMIT, Side.BUY, 10, 0.5, "x", "0.50")
        assert a == b and hash(a) == hash(b) and a.size_str is None
        assert a != feed.OrderEvent(1, 2, EventKind.LIMIT, Side.BUY, 10, 0.5, "y")
        assert a != (1, 2, EventKind.LIMIT, Side.BUY, 10, 0.5, "x")

    def test_slotted_with_positional_signature(self):
        ev = feed.OrderEvent(1, 2, EventKind.MARKET, Side.SELL, None, 0.5, "x")
        assert not hasattr(ev, "__dict__")
        assert (ev.timestamp_ms, ev.seq, ev.kind, ev.side, ev.price_ticks, ev.size,
                ev.order_id, ev.size_str) == (1, 2, EventKind.MARKET, Side.SELL, None, 0.5,
                                              "x", None)

    def test_repr_names_every_field(self):
        ev = feed.OrderEvent(1, 2, EventKind.LIMIT, Side.BUY, 10, 0.5, "x", "0.5")
        assert repr(ev) == ("OrderEvent(timestamp_ms=1, seq=2, kind=<EventKind.LIMIT: 1>, "
                            "side=<Side.BUY: 1>, price_ticks=10, size=0.5, order_id='x', "
                            "size_str='0.5')")


class TestRoundTrip:
    def test_generated_lines_round_trip(self, noise_lines):
        for line in noise_lines:
            assert feed.serialize_event(feed.parse_event(line)) == line

    @given(
        ts=st.integers(min_value=0, max_value=2**48),
        seq=st.integers(min_value=1, max_value=2**48),
        kind=st.sampled_from(list(EventKind)),
        side=st.sampled_from(list(Side)),
        price=st.integers(min_value=1, max_value=10**9),
        size=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False,
                       allow_infinity=False),
        oid=st.text(st.characters(categories=["L", "N"]), max_size=12),
    )
    def test_serialize_parse_serialize(self, ts, seq, kind, side, price, size, oid):
        ev = feed.OrderEvent(ts, seq, kind, side,
                             None if kind is EventKind.MARKET else price, size, oid)
        line = feed.serialize_event(ev)
        assert feed.serialize_event(feed.parse_event(line)) == line


def _json_line(ev):
    """The `json.dumps` rendering of `ev` that `serialize_event` must
    equal byte for byte."""
    obj: dict = {"ts": ev.timestamp_ms, "seq": ev.seq, "kind": ev.kind.wire, "side": ev.side.wire}
    if ev.kind is not EventKind.MARKET:
        obj["price"] = ev.price_ticks
    obj["size"] = ev.size_str if ev.size_str is not None else ev.size
    obj["id"] = ev.order_id
    return json.dumps(obj, separators=(",", ":"))


def _written(f, ev):
    """The line `f` writes for `ev`, or the error's type and message."""
    try:
        return f(ev)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


# values that `serialize_event` hands to `json.dumps`; `7` only in the
# size and string fields, since ts, seq and price are ints on the wire
_MISTYPED = st.sampled_from([True, False, None, 7, np.int64(5), np.float64(0.5), np.str_("x")])
_WIRE_INT = st.integers() | st.sampled_from([2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1, 10 ** 30])
_WIRE_TEXT = st.text(_CHARS | st.sampled_from(["\U0001d11e", "\U0010ffff"]), max_size=6)
_WIRE_FLOAT = st.floats() | st.sampled_from([5e-324, 1e16, 1e22, 1 / 3, -0.0, 2.0 ** 70,
                                            math.nan, math.inf, -math.inf])


class TestSerialize:
    """`serialize_event` fills one template with exact ints, finite floats
    and strings, and writes what `json.dumps` writes for every input."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(list(EventKind)), side=st.sampled_from(list(Side)),
           ts=_WIRE_INT, seq=_WIRE_INT, price=_WIRE_INT, size=_WIRE_FLOAT,
           size_str=st.none() | _WIRE_TEXT, oid=_WIRE_TEXT, data=st.data())
    def test_equals_json_dumps(self, kind, side, ts, seq, price, size, size_str, oid, data):
        fields = dict(timestamp_ms=ts, seq=seq, price_ticks=price, size=size,
                      size_str=size_str, order_id=oid)
        for name in data.draw(st.sets(st.sampled_from(sorted(fields)), max_size=2),
                              label="mistyped"):
            fields[name] = data.draw(_MISTYPED, label=name)
        ev = feed.OrderEvent(kind=kind, side=side, **fields)
        ts, seq, price, size, size_str, oid = (ev.timestamp_ms, ev.seq, ev.price_ticks,
                                               ev.size, ev.size_str, ev.order_id)
        templated = (type(ts) is int and type(seq) is int and type(oid) is str
                     and (kind is EventKind.MARKET or type(price) is int)
                     and (type(size_str) is str if size_str is not None
                          else type(size) is float and math.isfinite(size)))
        dumped = []

        def dumps(obj, **kw):
            dumped.append(obj)
            return json.dumps(obj, **kw)
        with mock.patch.object(feed, "json", SimpleNamespace(dumps=dumps)):
            assert _written(feed.serialize_event, ev) == _written(_json_line, ev)
        assert bool(dumped) is not templated

    def test_generated_lines_skip_json_dumps(self, monkeypatch):
        streams = [feed.generate_synthetic(feed.GeneratorConfig(n_events=3000), seed=5),
                   feed.generate_synthetic(feed.GeneratorConfig(
                       n_events=3000, planted=feed.PLANTED_LAST_EVENT_SIDE), seed=5)]

        def no_json(obj, **kw):
            raise AssertionError(f"json.dumps called on {obj!r}")
        monkeypatch.setattr(feed, "json", SimpleNamespace(dumps=no_json))
        lines = [line for stream in streams for line in stream]
        monkeypatch.undo()
        assert len(lines) == 6000
        assert {json.loads(line)["kind"] for line in lines} == {"limit", "market", "cancel"}


class TestIterEvents:
    def test_empty(self):
        assert list(feed.iter_events([])) == []

    def test_three_records(self, noise_lines):
        got = list(feed.iter_events(noise_lines[:3]))
        assert len(got) == 3
        assert got[0].timestamp_ms == json.loads(noise_lines[0])["ts"]
        assert got[-1].timestamp_ms == json.loads(noise_lines[2])["ts"]

    def test_seq_regression(self):
        lines = [
            '{"ts":1,"seq":1,"kind":"limit","side":"buy","price":10,"size":1,"id":"a"}',
            '{"ts":2,"seq":3,"kind":"limit","side":"buy","price":10,"size":1,"id":"b"}',
            '{"ts":3,"seq":2,"kind":"limit","side":"buy","price":10,"size":1,"id":"c"}',
        ]
        with pytest.raises(feed.OutOfOrder, match="line 3"):
            list(feed.iter_events(lines))

    def test_timestamp_regression(self):
        lines = [
            '{"ts":5,"seq":1,"kind":"limit","side":"buy","price":10,"size":1,"id":"a"}',
            '{"ts":4,"seq":2,"kind":"limit","side":"buy","price":10,"size":1,"id":"b"}',
        ]
        with pytest.raises(feed.OutOfOrder):
            list(feed.iter_events(lines))

    def test_parse_error_carries_line_number(self):
        lines = ['{"ts":1,"seq":1,"kind":"limit","side":"buy","price":10,"size":1,"id":"a"}',
                 "garbage"]
        with pytest.raises(feed.MalformedRecord, match="line 2"):
            list(feed.iter_events(lines))

    def test_order_preserving(self, noise_lines):
        got = list(feed.iter_events(noise_lines))
        assert [e.seq for e in got] == sorted(e.seq for e in got)
        assert [feed.serialize_event(e) for e in got] == noise_lines


def _good(seq):
    return (f'{{"ts":1,"seq":{seq},"kind":"limit","side":"buy","price":10,"size":1,'
            f'"id":"o{seq}"}}').encode()


def _read(path, fork: bool):
    """What `read_events` makes of `path` with the forked reader forced on
    or off: each event's full repr (`size_str` included), then the
    error's type and message, or None."""
    with pytest.MonkeyPatch.context() as mp:
        _cpus(mp, 2 if fork else 1)
        mp.setattr(feed, "READ_FORK_BYTES", 0)
        started = _counting_forks(mp)
        got = _yielded(feed.read_events(path))
    assert started == ([1] if fork else [])
    return got


def _yielded(events):
    """Each event's full repr (`size_str` included) that `events` yields,
    then the error's type and message, or None."""
    got, error = [], None
    try:
        for ev in events:
            got.append(repr(ev))
    except feed.FeedError as e:
        error = type(e), str(e)
    return got, error


@pytest.mark.usefixtures("no_leaked_fds")
class TestReadEvents:
    @pytest.mark.parametrize("lines,events,error", [
        ([_good(1), b"\xff\xfe"], 1, "line 2: not UTF-8 text (invalid start byte)"),
        ([b"\xff\xfe"], 0, "line 1: not UTF-8 text (invalid start byte)"),
        # past the first 8 KiB text chunk, and a two-byte sequence cut
        # short by the end of the file
        ([_good(i) for i in range(300)] + [b'{"id":"\xc3'], 300,
         "line 301: not UTF-8 text (unexpected end of data)"),
        # a bare carriage return ends a line too
        ([_good(1), b"", _good(2) + b"\r" + b"\x80"], 2,
         "line 4: not UTF-8 text (invalid start byte)"),
        # within the decoder's first 8 KiB chunk, the lines before the bad byte
        ([_good(i) for i in range(1, 50)] + [b"\xff"], 49,
         "line 50: not UTF-8 text (invalid start byte)"),
        # one line at a time, the stream stops at the bad JSON before the bad byte
        ([_good(1), b"garbage", b"\xff"], 1, "line 2: bad JSON"),
        # the reason comes from the line, without its newline
        ([_good(1), b'{"id":"\xc3', _good(2)], 1,
         "line 2: not UTF-8 text (unexpected end of data)"),
    ])
    def test_non_utf8_bytes_name_the_line(self, tmp_path, lines, events, error):
        # serial, forked and from a file object: the events of the lines
        # before the first faulty one, then that line's error
        path = tmp_path / "bad.ofr"
        path.write_bytes(b"\n".join(lines))
        got = _read(path, False)
        assert len(got[0]) == events and got[1][0] is feed.MalformedRecord
        assert got[1][1].startswith(error)
        assert _read(path, True) == got
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            assert _yielded(feed.iter_events(fh)) == got

    def test_a_caller_line_with_a_lone_surrogate_is_not_utf8(self):
        good = _good(1).decode()
        bad = _good(2).decode().replace('"id":"o', '"id":"\ud800')
        assert _yielded(feed.iter_events([good, bad])) == (
            [repr(feed.parse_event(good))],
            (feed.MalformedRecord, "line 2: not UTF-8 text (surrogates not allowed)"))

    def test_utf8_stream_reads(self, tmp_path, noise_lines):
        path = tmp_path / "ok.ofr"
        path.write_text("\n".join(noise_lines) + "\n", encoding="utf-8")
        assert [feed.serialize_event(e) for e in feed.read_events(path)] == noise_lines
        assert _read(path, True) == _read(path, False)

    def test_missing_file_raises_before_any_fork(self, tmp_path, monkeypatch):
        monkeypatch.setattr(feed, "READ_FORK_BYTES", 0)
        _cpus(monkeypatch, 2)
        with pytest.raises(FileNotFoundError):
            next(feed.read_events(tmp_path / "nope.ofr"))

    def test_only_large_files_on_two_cpus_fork(self, tmp_path, monkeypatch, noise_lines):
        path = tmp_path / "ok.ofr"
        path.write_text("\n".join(noise_lines) + "\n", encoding="utf-8")
        started = _counting_forks(monkeypatch)
        size = path.stat().st_size
        for cpus, threshold, fork in ((2, size, True), (2, size + 1, False), (1, 0, False)):
            _cpus(monkeypatch, cpus)
            monkeypatch.setattr(feed, "READ_FORK_BYTES", threshold)
            started.clear()
            assert len(list(feed.read_events(path))) == len(noise_lines)
            assert started == ([1] if fork else [])
        # a stream of lines is always parsed in this process
        assert len(list(feed.iter_events(noise_lines))) == len(noise_lines)
        assert started == []

    @pytest.mark.parametrize("code", [errno.EAGAIN, errno.ENOMEM])
    def test_failed_fork_reads_here(self, tmp_path, monkeypatch, code):
        # a bad line late in the stream: the same events, then the same error
        lines = [_good(i) for i in range(1, 2000)] + [b'{"ts":1}']
        path = tmp_path / "ok.ofr"
        path.write_bytes(b"\n".join(lines) + b"\n")
        want = _read(path, False)
        assert len(want[0]) == 1999 and want[1][0] is feed.SchemaViolation
        _failing_forks(monkeypatch, code)
        with pytest.MonkeyPatch.context() as mp:
            _cpus(mp, 2)
            mp.setattr(feed, "READ_FORK_BYTES", 0)
            started = _counting_forks(mp)
            events = []
            with pytest.raises(feed.SchemaViolation) as caught:
                for ev in feed.read_events(path):
                    events.append(repr(ev))
        assert started == [1]   # a fork was tried
        assert (events, (type(caught.value), str(caught.value))) == want

    def test_build_size_streams_read_on_the_forked_reader(self, tmp_path):
        # READ_FORK_BYTES's grid: the forked reader won at 8k planted
        # events and lost at 2k, so a line format or threshold that sends
        # an 8k stream back to the serial reader fails here
        sizes = {}
        for n in (2000, 8000):
            cfg = feed.GeneratorConfig(n_events=n, planted=feed.PLANTED_LAST_EVENT_SIDE,
                                       min_gap_ms=1)
            for seed in (7, 4242):
                path = tmp_path / f"{n}-{seed}.ofr"
                feed.write_stream(path, cfg, seed)
                sizes[n, seed] = path.stat().st_size
        assert max(sizes[2000, s] for s in (7, 4242)) < feed.READ_FORK_BYTES
        assert min(sizes[8000, s] for s in (7, 4242)) >= feed.READ_FORK_BYTES


def _spelled(obj: dict, spelling: str) -> str:
    if spelling == "spaced":
        return json.dumps(obj, separators=(", ", ": "))
    if spelling == "reordered":
        return json.dumps(dict(reversed(obj.items())), separators=(",", ":"))
    return feed.serialize_event(feed.parse_event(json.dumps(obj, separators=(",", ":"))))


# one stream record: an event spelled canonically or not, whose seq and ts
# may step back; a blank, malformed or whitespace line; or bytes that are
# not UTF-8.  Each comes with its line ending.
_RECORDS = st.tuples(
    st.one_of(
        st.tuples(st.just("event"), st.integers(-1, 3), st.integers(-1, 3),
                  st.sampled_from(["limit", "market", "cancel"]), st.sampled_from(["buy", "sell"]),
                  st.integers(1, 10 ** 6), st.sampled_from([0.5, 1.0, 2.25, "0.50", "1e1"]),
                  st.sampled_from(["canonical", "canonical", "spaced", "reordered"])),
        st.tuples(st.just("text"), st.sampled_from(["", "", " ", "garbage", "{", "[]", "null",
                                                    '{"ts":1}', "\t{}"])),
        st.tuples(st.just("bytes"), st.sampled_from([b"\xff", b'{"id":"\xc3', b"x\x80"]))),
    st.sampled_from([b"\n", b"\r\n", b"\r"]))


def _stream_bytes(pad: int, records) -> bytes:
    """`pad` canonical events, then `records` (see _RECORDS)."""
    ts, seq, out = 1_510_000_000_000, 0, []
    for i in range(pad):
        seq, ts = seq + 1, ts + 7
        out.append(_good(seq).replace(b'"ts":1,', b'"ts":%d,' % ts) + b"\n")
    for record, ending in records:
        if record[0] == "event":
            _, dts, dseq, kind, side, price, size, spelling = record
            seq, ts = seq + dseq, ts + dts
            obj = {"ts": ts, "seq": seq, "kind": kind, "side": side,
                   **({} if kind == "market" else {"price": price}), "size": size,
                   "id": f"o{seq}"}
            line = _spelled(obj, spelling).encode()
        elif record[0] == "text":
            line = record[1].encode()
        else:
            line = record[1]
        out.append(line + ending)
    return b"".join(out)


@pytest.mark.usefixtures("no_leaked_fds")
class TestForkedReader:
    """The forked reader yields what the serial one yields, raises what it
    raises at the same point, and leaves no process behind."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pad=st.sampled_from([0, 0, 150]), records=st.lists(_RECORDS, max_size=12))
    def test_forked_and_serial_paths_agree(self, pad, records):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "s.ofr"
            path.write_bytes(_stream_bytes(pad, records))
            assert _read(path, True) == _read(path, False)

    def test_abandoned_stream_joins_its_worker(self, big_stream, monkeypatch):
        _cpus(monkeypatch, 2)
        started = _started_workers(monkeypatch)
        for end in ("close", "drop"):
            stream = feed.read_events(big_stream)
            next(stream)
            (worker,) = started
            if end == "close":
                stream.close()
            else:
                del stream
            assert worker.exitcode is not None
            started.clear()
            assert not _has_children()

    def test_raising_consumer_joins_the_worker(self, big_stream, monkeypatch):
        _cpus(monkeypatch, 2)
        started = _started_workers(monkeypatch)

        def consume():
            for ev in feed.read_events(big_stream):
                assert started[0].exitcode is None
                raise RuntimeError("consumer failed")

        with pytest.raises(RuntimeError, match="consumer failed"):
            consume()
        assert len(started) == 1 and started[0].exitcode is not None
        assert not _has_children()

    def test_killed_worker_is_a_feed_error_naming_the_last_line(self, big_stream, monkeypatch):
        _cpus(monkeypatch, 2)
        started = _started_workers(monkeypatch)
        stream = feed.read_events(big_stream)
        events = [next(stream)]
        (worker,) = started
        os.kill(worker.pid, signal.SIGKILL)
        with pytest.raises(feed.ReaderExited, match=r"the reader process exited after line"):
            events.extend(stream)
        assert not _has_children()
        n = len(events)
        assert 0 < n < _BIG_LINES
        # every line before the error came through, in order
        assert [e.seq for e in events] == list(range(1, n + 1))

    def test_killed_worker_is_one_cli_error_line(self, big_stream, tmp_path, monkeypatch,
                                                 capsys):
        from lobflow import cli, stats
        _cpus(monkeypatch, 2)
        started = _started_workers(monkeypatch)
        pred = tmp_path / "pred_X__X.orderflow.test.csv"
        pred.write_text("# split=test\n# test_pair=X\n# train_pair=X\n# variant=orderflow\n"
                        "timestamp_ms,y,yhat,p1\n1510000000000,1,1,0.9\n")
        aggregate = stats.daily_market_aggregates

        def killing(events):
            first = next(events)
            for worker in started:
                os.kill(worker.pid, signal.SIGKILL)
            return aggregate(itertools.chain([first], events))

        monkeypatch.setattr(stats, "daily_market_aggregates", killing)
        capsys.readouterr()
        rc = cli.main(["report", "--out", str(tmp_path / "out"), "--pred", str(pred),
                       "--stream", str(big_stream)])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {big_stream}: the reader process "
                                                   "exited after line ")
        assert not _has_children()

    def test_killed_parent_leaves_no_worker(self, big_stream):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(feed.__file__)))
        with subprocess.Popen([sys.executable, "-c", _ORPHAN, str(big_stream)], env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            pid = int(proc.stdout.readline())
            assert _running(pid)
            proc.kill()
        deadline = time.monotonic() + 10
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)


def _per_line(lines):
    """What reading `lines` one at a time makes of them, as `_yielded`
    gives it: blank lines skipped, each other line parsed by `parse_event`
    (`json.loads`, no regular expression) and the stream's order checked,
    each fault named with its line."""
    got, prev = [], None
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            ev = feed.parse_event(line)
        except feed.FeedError as e:
            return got, (type(e), f"line {line_no}: {e}")
        if prev is not None and ev.seq <= prev.seq:
            return got, (feed.OutOfOrder, f"line {line_no}: seq {ev.seq} after {prev.seq}")
        if prev is not None and ev.timestamp_ms < prev.timestamp_ms:
            return got, (feed.OutOfOrder,
                         f"line {line_no}: timestamp {ev.timestamp_ms} before {prev.timestamp_ms}")
        got.append(repr(ev))
        prev = ev
    return got, None


def _compact(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _event_obj(seq: int, ts: int) -> dict:
    """A valid record; its kind turns with `seq`."""
    kind = ("limit", "market", "cancel")[seq % 3]
    return {"ts": ts, "seq": seq, "kind": kind, "side": ("buy", "sell")[seq % 2],
            **({} if kind == "market" else {"price": 10 + seq % 7}), "size": 0.5 + seq % 4,
            "id": f"o{seq}"}


def _with(**changes):
    return lambda obj: _compact({**obj, **changes})


def _without(key):
    return lambda obj: _compact({k: v for k, v in obj.items() if k != key})


# valid records spelled other than canonically, or canonically with a
# string size, and a blank line; each a function of a valid record
_VALID_SPELLINGS = {
    "reordered": lambda obj: _compact(dict(reversed(obj.items()))),
    "spaced": json.dumps,
    "escaped": lambda obj: _compact(obj).replace('"id":"o', '"id":"\\u006f'),
    "string size": lambda obj: _compact({**obj, "size": f"{obj['size']}0"}),
    "exponent size": lambda obj: _compact({**obj, "size": f"{obj['size'] * 10}e-1"}),
    "carriage return": lambda obj: _compact(obj) + "\r",
    "newline whitespace": lambda obj: _compact(obj).replace(",", ",\n", 1),
    "blank": lambda obj: "",
}
# every fault `parse_event` names, as a function of the valid record it
# replaces; then a record out of order, and two records on one line
_FAULTS = {
    "bad JSON": lambda obj: _compact(obj)[:-1],
    "nested too deeply": lambda obj: "[" * 100_000,
    "whitespace": lambda obj: " ",
    "not an object": lambda obj: "[]",
    "unknown field": _with(extra=1),
    "missing field": _without("id"),
    "ts not an integer": _with(ts="1"),
    "seq not an integer": _with(seq=1.5),
    "bad kind": _with(kind="stop"),
    "bad side": _with(side=["buy"]),
    "market with a price": lambda obj: _compact({**obj, "kind": "market", "price": 10}),
    "limit without a price": lambda obj: _compact(
        {k: v for k, v in obj.items() if k != "price"} | {"kind": "limit"}),
    "price not an integer": lambda obj: _compact({**obj, "kind": "limit", "price": 10.5}),
    "non-positive price": lambda obj: _compact({**obj, "kind": "limit", "price": 0}),
    "bad size string": _with(size="1_0"),
    "size a bool": _with(size=True),
    "zero size": _with(size=0),
    "infinite size": lambda obj: _compact({**obj, "size": 7}).replace('"size":7', '"size":1e400'),
    "size too large for a float": _with(size=10 ** 400),
    "id not a string": _with(id=7),
    "ts beyond int64": _with(ts=2 ** 63),
    "seq not increasing": lambda obj: _compact({**obj, "seq": obj["seq"] - 1}),
    "ts decreasing": lambda obj: _compact({**obj, "ts": obj["ts"] - 5}),
    "two records": lambda obj: _compact(obj) + "\n" + _compact(obj),
    # a byte that is not UTF-8, as it reads under errors="surrogateescape"
    "not UTF-8": lambda obj: _compact(obj).replace('"id":"o', '"id":"\udcffo'),
}


@st.composite
def _block_streams(draw):
    """Stream items: canonical records, with a few valid other spellings
    and blank lines among them, and a fault at a block edge or none."""
    at = draw(st.sampled_from([None, 1, 127, 128, 129, 511, 512, 513]))
    n = (at if at else draw(st.sampled_from([1, 128, 513, 700]))) + draw(st.integers(0, 3))
    odd = draw(st.dictionaries(st.integers(1, n), st.sampled_from(sorted(_VALID_SPELLINGS)),
                               max_size=4))
    fault = draw(st.sampled_from(sorted(_FAULTS)))
    items, seq, ts = [], 0, 1_510_000_000_000
    for i in range(1, n + 1):
        obj = _event_obj(seq + 1, ts + seq % 3)
        if i == at:
            items.append(_FAULTS[fault](obj))
            continue
        items.append(_VALID_SPELLINGS[odd[i]](obj) if i in odd else _compact(obj))
        if items[-1]:
            seq, ts = obj["seq"], obj["ts"]
    return items


@pytest.mark.usefixtures("no_leaked_fds")
class TestBlocks:
    """Lines are parsed a block at a time, and read as they are read one
    at a time: the same events, then the same error at the same line."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(items=_block_streams())
    def test_blocks_read_as_lines_on_every_path(self, items):
        assert _yielded(feed.iter_events(items)) == _per_line(items)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "s.ofr"
            path.write_bytes("".join(item + "\n" for item in items)
                             .encode("utf-8", "surrogateescape"))
            with open(path, encoding="utf-8", errors="surrogateescape") as fh:
                want = _per_line(list(fh))
            assert _read(path, False) == want
            assert _read(path, True) == want

    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_every_fault_at_every_block_edge(self, tmp_path, fault):
        # the first line of the stream, and the last, first and second
        # lines of the first two blocks after it (128 and 512 lines)
        path = tmp_path / "s.ofr"
        for at in (1, 127, 128, 129, 511, 512, 513):
            if at == 1 and fault in ("seq not increasing", "ts decreasing"):
                continue   # the first record has none before it to be out of order with
            items = [_compact(_event_obj(seq, 1_510_000_000_000 + 2 * seq))
                     for seq in range(1, at + 3)]
            items[at - 1] = _FAULTS[fault](_event_obj(at, 1_510_000_000_000 + 2 * at))
            want = _per_line(items)
            assert len(want[0]) == at - 1 and want[1][1].startswith(f"line {at}: ")
            assert _yielded(feed.iter_events(items)) == want
            # in a file, two records on one line are two lines, and the
            # surrogate is the byte it escapes
            path.write_bytes("".join(item + "\n" for item in items)
                             .encode("utf-8", "surrogateescape"))
            with open(path, encoding="utf-8", errors="surrogateescape") as fh:
                want = _per_line(list(fh))
            assert want[1] is not None
            assert _read(path, False) == want
            assert _read(path, True) == want

    def test_a_line_of_two_records_beside_a_refused_line_is_a_fault(self):
        # the block's matches are as many as its lines, but not one per line
        one, two, three = (_event_obj(seq, 1_510_000_000_000 + seq) for seq in (1, 2, 3))
        items = [_compact(one) + "\n" + _compact(two), json.dumps(three)]
        want = _per_line(items)
        assert want == ([], (feed.MalformedRecord, want[1][1]))
        assert want[1][1].startswith("line 1: bad JSON")
        assert _yielded(feed.iter_events(items)) == want

    def test_lines_that_are_not_text_raise_where_they_do_one_at_a_time(self):
        items = [_compact(_event_obj(1, 1)), None]
        with pytest.raises(AttributeError):
            for ev in feed.iter_events(items):
                assert ev.seq == 1

    def test_generated_streams_take_no_line_one_at_a_time(self, tmp_path, monkeypatch,
                                                         noise_lines):
        # every block of a generated stream is read whole
        def per_line(line):
            raise AssertionError(f"per-line path taken by {line!r}")
        path = tmp_path / "s.ofr"
        path.write_text("".join(line + "\n" for line in noise_lines), encoding="utf-8")
        want = [repr(ev) for ev in feed.iter_events(noise_lines)]
        monkeypatch.setattr(feed, "parse_event", per_line)
        assert [repr(ev) for ev in feed.iter_events(noise_lines)] == want
        assert _read(path, False) == _read(path, True) == (want, None)


# a parent that reads one event of a stream on a forked reader, names the
# reader's pid and waits to be killed
_ORPHAN = """
import os, sys, time
from lobflow import feed, forked
os.sched_getaffinity = lambda pid: {0, 1}
feed.READ_FORK_BYTES = 0
workers, start = [], forked.Worker.__init__
forked.Worker.__init__ = lambda self, *a, **k: start(self, *a, **k) or workers.append(self)
stream = feed.read_events(sys.argv[1])
next(stream)
(worker,) = workers
print(worker.pid, flush=True)
time.sleep(600)
"""


def _running(pid: int) -> bool:
    """Whether process `pid` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


# more lines than the reader's pipe holds, so that it is still reading
# when the tests above kill it
_BIG_LINES = 100_000


@pytest.fixture(scope="module")
def big_stream(tmp_path_factory):
    """_BIG_LINES resting buy orders, one line each, in order."""
    path = tmp_path_factory.mktemp("big") / "big.ofr"
    path.write_text("".join(
        f'{{"ts":{1_510_000_000_000 + 1000 * i},"seq":{i + 1},"kind":"limit","side":"buy",'
        f'"price":{10 + i % 50},"size":1.0,"id":"o{i + 1}"}}\n' for i in range(_BIG_LINES)))
    return path


class TestWriteStream:
    def interrupt_after(self, monkeypatch, k):
        real = feed.generate_synthetic

        def failing(config, seed):
            for i, line in enumerate(real(config, seed)):
                if i == k:
                    raise RuntimeError("interrupted")
                yield line
        monkeypatch.setattr(feed, "generate_synthetic", failing)

    @pytest.mark.parametrize("k", [0, 1, 150])
    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch, k):
        self.interrupt_after(monkeypatch, k)
        with pytest.raises(RuntimeError, match="interrupted"):
            feed.write_stream(tmp_path / "s.ofr", feed.GeneratorConfig(n_events=300), seed=1)
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_keeps_old_stream(self, tmp_path, monkeypatch):
        target = tmp_path / "s.ofr"
        assert feed.write_stream(target, feed.GeneratorConfig(n_events=20), seed=1) == 20
        old = target.read_bytes()
        self.interrupt_after(monkeypatch, 150)
        with pytest.raises(RuntimeError):
            feed.write_stream(target, feed.GeneratorConfig(n_events=300), seed=2)
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == old

    def test_complete_write(self, tmp_path):
        target = tmp_path / "s.ofr"
        cfg = feed.GeneratorConfig(n_events=300)
        assert feed.write_stream(target, cfg, seed=1) == 300
        assert list(tmp_path.iterdir()) == [target]
        expected = "".join(line + "\n" for line in feed.generate_synthetic(cfg, seed=1))
        assert target.read_text(encoding="utf-8") == expected


class TestGenerator:
    def test_zero_events(self):
        assert list(feed.generate_synthetic(feed.GeneratorConfig(n_events=0), seed=0)) == []

    def test_deterministic(self):
        cfg = feed.GeneratorConfig(n_events=500)
        assert (list(feed.generate_synthetic(cfg, seed=3))
                == list(feed.generate_synthetic(cfg, seed=3)))

    def test_different_seeds_differ(self):
        cfg = feed.GeneratorConfig(n_events=500)
        assert (list(feed.generate_synthetic(cfg, seed=3))
                != list(feed.generate_synthetic(cfg, seed=4)))

    # SHA-256 over the streams for each n in PINNED_N (each followed by a NUL),
    # recorded before the stream loops were rewritten; the n cover the cut-off
    # inside and just after the 24-line seed ladder (seed_levels=12)
    PINNED_N = [0, 23, 24, 25, 26, 27, 28, 1000]

    @pytest.mark.parametrize("planted,seed,digest", [
        (None, 7, "8ab384ec36d952776c566ad684f91df1d0abe9ae6bc822688ebf87d7d08ab20c"),
        (None, 4242, "54e8e58cebfe4eacd53a3ee5c968a3b3e4bfc2efdc81560f222d67d405ff469e"),
        (feed.PLANTED_LAST_EVENT_SIDE, 7,
         "989d3acfb48904c88f03f9944ec4a5c7f1a83fd47689a88ab2dcd99b98ccf9fe"),
        (feed.PLANTED_LAST_EVENT_SIDE, 4242,
         "f464612603be39b1e5318c3cb339217e3e5c98ceb4c307206a511d6decb50126"),
    ])
    def test_output_bytes_pinned(self, planted, seed, digest):
        h = hashlib.sha256()
        for n in self.PINNED_N:
            cfg = feed.GeneratorConfig(n_events=n, planted=planted)
            lines = list(feed.generate_synthetic(cfg, seed))
            assert len(lines) == n
            h.update("".join(line + "\n" for line in lines).encode())
            h.update(b"\0")
        assert h.hexdigest() == digest

    # SHA-256 of the files `write_stream` writes for the set-up inputs of
    # the benchmark's replay, build and learn workloads: at seed 7 recorded
    # before the generator wrote lines through a template, at seed 4242
    # before the draws were decoded from PCG64 raw words
    @pytest.mark.parametrize("seed,n,gap,min_gap,planted,digest", [
        (7, 30_000, 10_000, 0, None,
         "99020af58b40bff8a9da9c36423f896fd5d843aec618b2861f5afeed1bfa6455"),
        (7, 8_000, 60_000, 1, feed.PLANTED_LAST_EVENT_SIDE,
         "5f93081ea00fdc2f4fee8545f6b37b78595b7c3ed4b1514acecc712aa27cabda"),
        (7, 14_380, 180_000, 1, feed.PLANTED_LAST_EVENT_SIDE,
         "b9b4300aec19fe509a6a1aa43f569d9f4707d6b51cb61b2deebe25b98b91685b"),
        (4242, 30_000, 10_000, 0, None,
         "12200cee19538c7c2fe7d7bad99da5c80618eb48d03ffe6d97a5914177fccba7"),
        (4242, 8_000, 60_000, 1, feed.PLANTED_LAST_EVENT_SIDE,
         "fddedfd5284a8cc2a8b6b31f498bf68ac26befe1778b9817b6a59d086cd9046b"),
        (4242, 14_380, 180_000, 1, feed.PLANTED_LAST_EVENT_SIDE,
         "8943d2e55e1beadbf4f217077f969069ee6f5a44ea6570575324a4468bcbd289"),
    ])
    def test_benchmark_streams_pinned(self, tmp_path, seed, n, gap, min_gap, planted, digest):
        cfg = feed.GeneratorConfig(n_events=n, mean_gap_ms=gap, min_gap_ms=min_gap,
                                   planted=planted)
        assert feed.write_stream(tmp_path / "s.ofr", cfg, seed) == n
        assert hashlib.sha256((tmp_path / "s.ofr").read_bytes()).hexdigest() == digest

    def test_output_is_valid_stream(self, noise_lines):
        events = list(feed.iter_events(noise_lines))
        assert len(events) == len(noise_lines)

    @pytest.mark.parametrize("bad", [
        {"n_events": -1},
        {"start_price": 0},
        {"prop_limit": 0.5, "prop_market": 0.5, "prop_cancel": 0.5},
        {"prop_limit": -0.1, "prop_market": 0.6, "prop_cancel": 0.5},
        {"planted": "astrology"},
        {"mean_gap_ms": -4},
        {"mean_gap_ms": 0, "min_gap_ms": 1},   # no gap in [1, 2 * 0] to draw
        {"start_price": 12},                   # the opening ladder would reach price 0
        {"n_events": True},
        {"prop_cancel": float("nan")},
        {"n_events": feed.MAX_EVENTS + 1},
        {"mean_gap_ms": feed.MAX_MEAN_GAP_MS + 1},
        {"mean_gap_ms": 2 ** 62},
        {"start_ts": 9_223_372_036_854_775_000},   # the default 20k events pass 2**63
        {"start_ts": 260_000_000_000_000},         # year 10209: no UTC date
        {"start_ts": -62_135_596_800_001},         # before year 1
    ])
    def test_invalid_config(self, bad):
        with pytest.raises(feed.InvalidConfig):
            feed.GeneratorConfig(**bad)

    def test_largest_event_count_passes_the_check(self):
        # the config allocates and generates nothing
        assert feed.GeneratorConfig(n_events=feed.MAX_EVENTS).n_events == feed.MAX_EVENTS

    def test_largest_mean_gap_passes_the_check(self):
        cfg = feed.GeneratorConfig(n_events=30, mean_gap_ms=feed.MAX_MEAN_GAP_MS, start_ts=0)
        events = list(feed.iter_events(feed.generate_synthetic(cfg, seed=5)))
        assert len(events) == 30 and events[-1].timestamp_ms <= 30 * 2 * feed.MAX_MEAN_GAP_MS

    def test_last_start_ts_passes_the_check(self):
        # every gap is exactly 2 * mean_gap_ms, so the last ts reaches the
        # last ms of year 9999, which still has a UTC date
        n, gap = 40, 3
        last = checks.UTC_MS_MAX - n * 2 * gap
        cfg = feed.GeneratorConfig(n_events=n, mean_gap_ms=gap, min_gap_ms=2 * gap,
                                   start_ts=last)
        events = list(feed.iter_events(feed.generate_synthetic(cfg, seed=2)))
        assert len(events) == n and events[-1].timestamp_ms == checks.UTC_MS_MAX
        assert stats.utc_date(events[-1].timestamp_ms) == "9999-12-31"
        with pytest.raises(feed.InvalidConfig, match="start_ts"):
            feed.GeneratorConfig(n_events=n, mean_gap_ms=gap, min_gap_ms=2 * gap,
                                 start_ts=last + 1)

    def test_planted_rule_links_last_side_to_label(self, planted_events):
        # the event immediately before every mid move carries the move's side
        from lobflow import lob
        book = lob.OrderBook()
        prev_side = None
        checked = 0
        for e in planted_events:
            before = book.mid2()
            book.apply_event(e)
            after = book.mid2()
            if before is not None and after is not None and before != after:
                up = after > before
                assert prev_side is (Side.BUY if up else Side.SELL)
                checked += 1
            prev_side = e.side
        assert checked > 100


class TestDraws:
    """`feed._Draws` against ``np.random.default_rng``, call for call."""

    # no draw (1), small spans, about half of all draws rejected
    # (2**31 + 1) and both 32-bit edges
    SPANS = [1, 2, 3, 64, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32]

    @pytest.mark.parametrize("seed", [0, 1, 7, 4242, 2 ** 70 + 3])
    def test_matches_numpy_call_for_call(self, seed):
        draws, rng, plan = feed._Draws(seed), np.random.default_rng(seed), random.Random(seed)
        whole_words = 0
        for _ in range(4 * feed._RAW_BLOCK):
            if plan.random() < 0.4:
                got, want = draws.random(), rng.random()
                assert type(got) is float
                whole_words += 1
            else:
                lo = plan.choice([0, -1, 5, plan.randrange(-2 ** 40, 2 ** 40)])
                hi = lo + plan.choice(self.SPANS)
                got, want = draws.integers(lo, hi), rng.integers(lo, hi)
                assert type(got) is int and lo <= got < hi
            assert got == want
        assert whole_words > feed._RAW_BLOCK   # the draws crossed a block boundary

    def test_single_value_range_draws_nothing(self):
        draws, rng = feed._Draws(11), np.random.default_rng(11)
        assert draws.integers(-3, 4) == rng.integers(-3, 4)   # leaves a high half
        assert [draws.integers(9, 10) for _ in range(5)] == [9] * 5
        assert draws.integers(0, 64) == rng.integers(0, 64)   # takes the high half
        assert draws.random() == rng.random()

    @pytest.mark.parametrize("lo,hi", [(0, 2 ** 32 + 1), (-2 ** 40, 2 ** 40), (5, 5), (5, 4)])
    def test_rejects_ranges_outside_32_bits(self, lo, hi):
        with pytest.raises(ValueError, match="range"):
            feed._Draws(0).integers(lo, hi)
