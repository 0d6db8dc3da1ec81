"""One-byte edits of a valid file, for the readers' property tests.

An edit is an (op, offset, value) tuple: a byte XORed with a mask, a byte
inserted, deleted or set to 0 or 0xff, the file cut at the offset, or,
where the test names tokens, a byte replaced by one of them.
"""

from hypothesis import strategies as st

# Text that a number, a field separator or a JSON value may turn into.
TEXT_TOKENS = (b"nan", b"NaN", b"inf", b"Infinity", b"-1", b"1e999",
               b"null", b"[]", b"\t", b"\n", b'"', b"\xff")


def one_byte_edits(data: bytes, tokens=()):
    """A strategy of edits of `data`."""
    last = len(data) - 1
    edits = [
        st.tuples(st.just("xor"), st.integers(0, last), st.integers(1, 255)),
        st.tuples(st.just("insert"), st.integers(0, len(data)),
                  st.integers(0, 255)),
        st.tuples(st.just("delete"), st.integers(0, last), st.just(0)),
        st.tuples(st.just("set"), st.integers(0, last),
                  st.sampled_from([0, 255])),
        st.tuples(st.just("cut"), st.integers(0, last), st.just(0)),
    ]
    if tokens:
        edits.append(st.tuples(st.just("token"), st.integers(0, last),
                               st.sampled_from(tokens)))
    return st.one_of(*edits)


def edited(data: bytes, edit) -> bytes:
    op, at, value = edit
    if op == "xor":
        return data[:at] + bytes([data[at] ^ value]) + data[at + 1:]
    if op == "insert":
        return data[:at] + bytes([value]) + data[at:]
    if op == "delete":
        return data[:at] + data[at + 1:]
    if op == "set":
        return data[:at] + bytes([value]) + data[at + 1:]
    if op == "token":
        return data[:at] + value + data[at + 1:]
    return data[:at]
