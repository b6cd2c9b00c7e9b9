"""Every file a run keeps: how it is written, read and refused.

Writes go to ``<name>.tmp`` beside the target and are moved over it with
``os.replace``, so a killed process leaves the old file or the new one, never
a torn one. No fsync: the fault covered is a killed process, not a lost
machine. Records go to compact JSON (:func:`write_artifact`); vectors go to
``.npz`` files deflated at zlib level :data:`NPZ_LEVEL` (:func:`write_npz`),
read back as one row per key (:func:`read_npz`), or only their keys
(:func:`read_npz_keys`). The dense index is one such file, with two key
members: its table ids, as ``str`` since an id may be any unicode, and the
key of each row's embedded text, the first 128 bits of its SHA-256 as 32
ASCII hex digits, a quarter of the raw size of ``str``. The embedding
cache reads the index as a source of vectors and keeps the rest in a log of
such files, its segments (:func:`segments`), keyed by those text keys:
``<name>`` is segment 0 and ``<name>.1``, ``<name>.2``, ... sit beside it,
each written once and never changed, except that a compaction rewrites
segment 0 and then deletes the others; its owner,
``services.CachingEmbedder``, says what a kill at each step leaves. Reads
turn an unreadable or malformed file, or a missing or wrong-typed field,
into :class:`CorpusError` naming it. Every header is built here, by
:func:`header`, with writers passing only their body, and checked here:
:func:`check_header` refuses a wrong ``version`` or another ``backend_id``,
and :func:`read_npz` a ``dimension`` other than the vectors' width.

JSON-lines files (queries, gold, results, the journal below) are read by one
splitter, which ends a line at ``\n`` alone: JSON leaves U+0085, U+2028 and
U+2029 raw, so any character in an id or a question round-trips.

The one file that is appended to instead is a journal, ``<name>.journal``
beside the artifact it updates (:func:`journal_of`): a header line, then one
JSON line per change. Its owner opens it once (:func:`open_journal`) and
appends each change as one flushed write (:func:`append_journal`), so only
its last line can be torn by a killed process; :func:`read_journal` drops
that line and :func:`open_journal` cuts it off before the first append. The
owner compacts the journal into the artifact once and then deletes it.
"""

from __future__ import annotations

import json
import os
import re
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .errors import BackendError, CorpusError

#: Format version written into, and required of, every persisted artifact.
#: Version 2 added the index's text keys, which the embedding cache reads;
#: version 3 cut each text key to 128 bits, so a version-2 key matches none;
#: version 4 stores ``corpus.json`` one value list per column, not by row.
FORMAT_VERSION = 4
#: The zlib level of every ``.npz`` member. On ``serve``'s cold build, level 4
#: deflated the index vectors in 10.9 ms against 21.8 ms at zlib's default 6,
#: for 152.8 KB against 140.2 KB; the halved text keys more than pay for those
#: bytes. Level 1 took 12 ms for 187 KB, 33% more than level 6.
NPZ_LEVEL = 4
# bytes of one array that write_npz copies at a time
_NPZ_CHUNK_BYTES = 1 << 18


@contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """Yield a temp path to write; on success it replaces ``path`` atomically.

    If the block raises, the temp file is removed and ``path`` is untouched.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def _write(path: str | Path, text: str) -> None:
    with replacing(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def header(backend_id: str | None = None, **fields: object) -> dict:
    """The header of an artifact, the inverse of :func:`check_header`:
    ``version``, ``backend_id`` when given, and ``fields``."""
    if backend_id is not None:
        fields["backend_id"] = backend_id
    return {"version": FORMAT_VERSION, **fields}


#: the separators of compact JSON: no space after a comma or a colon
_COMPACT = (",", ":")


def write_artifact(path: str | Path, body: dict, backend_id: str | None = None) -> None:
    """``body`` and its :func:`header` as compact, key-sorted JSON: the
    layout of every JSON artifact, read back by :func:`read_artifact`."""
    _write(path, json.dumps({**body, **header(backend_id)}, sort_keys=True, ensure_ascii=False, separators=_COMPACT))


def write_report(path: str | Path, payload: object) -> None:
    """Indented, key-sorted JSON for the reports people read."""
    _write(path, json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n")


def write_lines(path: str | Path, lines: list[str]) -> None:
    """Write ``lines`` newline-terminated, e.g. the records of a JSON-lines file."""
    _write(path, "\n".join(lines) + "\n")


#: a ``\u`` escape of a surrogate, U+D800 to U+DFFF, in either case
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _parse(text: str) -> object:
    """``json.loads(text)``; a lone surrogate, which is not UTF-8 text, raises ``ValueError``."""
    data = json.loads(text)
    # text decoded from UTF-8 holds no surrogate, so only a surrogate's \u
    # escape can put one in data; the escapes of control characters, which
    # write_artifact writes, cannot, and cost no second serialization
    if _SURROGATE_ESCAPE.search(text):
        try:
            json.dumps(data, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"{exc.object[exc.start]!r} is a lone surrogate, not UTF-8 text") from None
    return data


def _read(path: str | Path, what: str, error: type[Exception] = CorpusError) -> bytes:
    """The bytes of the file at ``path``; an ``OSError`` raises ``error`` naming it as ``what``."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_json(path: str | Path, what: str, error: type[Exception] = CorpusError) -> object:
    """Parse a JSON file; ``what`` names it in the ``error`` raised on failure."""
    data = _read(path, what, error)
    try:
        return _parse(data.decode("utf-8"))
    except ValueError as exc:  # invalid UTF-8, invalid JSON or a lone surrogate
        raise error(f"malformed {what} {path}: {exc}") from exc


def check_header(data: object, path: str | Path, what: str, backend_id: str | None = None) -> dict:
    """Return ``data`` if it is an artifact of this format (and backend).

    A wrong or missing version raises :class:`CorpusError`; when
    ``backend_id`` is given, an artifact built with another backend raises
    :class:`BackendError`.
    """
    version = data.get("version") if isinstance(data, dict) else None
    if version != FORMAT_VERSION:
        raise CorpusError(f"unsupported {what} format version {version!r} in {path}")
    if backend_id is not None and data.get("backend_id") != backend_id:
        raise BackendError(
            f"{what} {path} was built with backend {data.get('backend_id')!r}, "
            f"configured {backend_id!r}"
        )
    return data


def require(
    record: object, field: str, path: str | Path, what: str, kind: type | tuple[type, ...] = object
) -> object:
    """``record[field]`` of a parsed artifact, an instance of ``kind``; a
    missing or wrong-typed field raises :class:`CorpusError` naming the file
    and the field."""
    try:
        value = record[field]  # type: ignore[index]
    except (KeyError, TypeError) as exc:
        raise CorpusError(f"malformed {what} {path}: missing field {field!r}") from exc
    if not isinstance(value, kind):
        raise CorpusError(
            f"malformed {what} {path}: field {field!r} holds {type(value).__name__}"
        )
    return value


def read_artifact(path: str | Path, what: str, backend_id: str | None = None) -> dict:
    """A JSON artifact written with :func:`write_artifact`, its header checked."""
    return check_header(read_json(path, what), path, what, backend_id)


def write_npz(path: str | Path, backend_id: str, keys: dict[str, np.ndarray], vectors: np.ndarray) -> None:
    """Save the key members ``keys`` (each a 1-D array, one key per row, by
    member name), the 2-D ``vectors`` and their :func:`header`, a JSON string
    with ``dimension`` the vectors' width, in one ``.npz``, whatever the
    suffix of ``path``, each member deflated at zlib level :data:`NPZ_LEVEL`.

    Each member holds the bytes ``np.save`` writes for a C-ordered array, but
    goes out in chunks of ``_NPZ_CHUNK_BYTES``, where numpy first copies it
    whole, so a save holds no second copy of a large array.
    """
    meta = header(backend_id, dimension=vectors.shape[1])
    arrays = {**keys, "vectors": vectors, "meta": np.asarray(json.dumps(meta, sort_keys=True))}
    with replacing(path) as tmp, zipfile.ZipFile(
        tmp, "w", zipfile.ZIP_DEFLATED, allowZip64=True, compresslevel=NPZ_LEVEL
    ) as npz:
        for name, array in arrays.items():
            array = np.asarray(array, order="C")
            flat, step = array.reshape(-1), max(1, _NPZ_CHUNK_BYTES // max(1, array.itemsize))
            with npz.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, np.lib.format.header_data_from_array_1_0(array))
                for start in range(0, flat.size, step):
                    member.write(flat[start : start + step].tobytes())


def segments(path: str | Path) -> dict[int, Path]:
    """The segments of the segmented artifact at ``path`` that exist, by
    number: ``path`` itself is segment 0, and ``<name>.1``, ``<name>.2``,
    ... beside it the others; any other name, ``<name>.2.tmp`` among them,
    is not a segment."""
    target = Path(path)
    prefix = target.name + "."
    try:
        names = os.listdir(target.parent)
    except FileNotFoundError:
        return {}
    found = {}
    for name in names:
        number = name[len(prefix) :]
        if name == target.name:
            found[0] = target
        elif name.startswith(prefix) and number.isascii() and number.isdigit() and number[0] != "0":
            found[int(number)] = target.parent / name
    return dict(sorted(found.items()))


def _open_npz(path: str | Path, what: str, backend_id: str | None, names: tuple[str, ...]) -> tuple[dict, dict]:
    """(checked meta, the members among ``names`` that the file holds) of
    an ``.npz`` written by :func:`write_npz`; no other member is read."""
    try:
        # an open handle, because np.load leaks its own on a torn zip
        with Path(path).open("rb") as handle, np.load(handle, allow_pickle=False) as data:
            arrays = {name: data[name] for name in ("meta", *names) if name in data.files}
        meta = json.loads(str(arrays.pop("meta")))
    except OSError as exc:
        raise CorpusError(f"cannot read {what} {path}: {exc}") from exc
    except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise CorpusError(f"malformed {what} {path}: {exc}") from exc
    return check_header(meta, path, what, backend_id), arrays


def _decoded(keys: np.ndarray, field: str, path: str | Path, what: str) -> list[str]:
    """A key member as a list of ``str``, from ``str`` or ASCII bytes."""
    try:
        # one decode for either layout: str (index ids) or ASCII bytes (text keys)
        return keys.astype(str).tolist()
    except ValueError as exc:  # bytes that are not ASCII, or not text at all
        raise CorpusError(f"malformed {what} {path}: {field} are not ASCII or unicode text: {exc}") from exc


def read_npz(path: str | Path, what: str, backend_id: str | None, *keys_fields: str) -> tuple:
    """(checked meta, one list of keys per field of ``keys_fields``, vectors)
    of an ``.npz`` written by :func:`write_npz`; a member not named is not read.

    The keys may be stored as ``str`` or as ASCII bytes; either way they come
    back as lists of ``str``. The first field names the rows, so its keys are
    distinct. A later one holds the keys of the texts embedded, and two rows
    may share one of those only when their vectors are equal bit for bit:
    two tables with one text. Anything but 1-D key arrays and a 2-D
    ``vectors`` array of finite numbers with one row per key raises
    :class:`CorpusError` naming the file, and so do bytes keys that are not
    ASCII and a ``dimension`` other than the vectors' width.
    """
    meta, arrays = _open_npz(path, what, backend_id, (*keys_fields, "vectors"))
    members = [require(arrays, field, path, what) for field in keys_fields]
    vectors = require(arrays, "vectors", path, what)
    for field, keys in zip(keys_fields, members):
        if keys.ndim != 1 or vectors.ndim != 2 or len(keys) != len(vectors):
            raise CorpusError(f"malformed {what} {path}: {field} {keys.shape} for vectors {vectors.shape}")
    if vectors.dtype.kind not in "fiu" or not np.isfinite(vectors).all():
        raise CorpusError(f"malformed {what} {path}: vectors hold NaN, infinity or non-numbers")
    width, dimension = vectors.shape[1], meta.get("dimension")
    if type(dimension) is not int or dimension != width:
        raise CorpusError(f"malformed {what} {path}: field 'dimension' holds {dimension!r} for vectors of width {width}")
    decoded = [_decoded(keys, field, path, what) for field, keys in zip(keys_fields, members)]
    if len(set(decoded[0])) != len(decoded[0]):
        raise CorpusError(f"malformed {what} {path}: repeated {keys_fields[0]}")
    for field, keys in zip(keys_fields[1:], decoded[1:]):
        if len(set(keys)) != len(keys):  # tables with one text share its key
            held: dict[str, bytes] = {}
            for key, row in zip(keys, vectors):
                if held.setdefault(key, row.tobytes()) != row.tobytes():
                    raise CorpusError(f"malformed {what} {path}: repeated {field} {key} with another vector")
    return (meta, *decoded, vectors)


def read_npz_keys(path: str | Path, what: str, backend_id: str | None, field: str) -> list[str]:
    """The keys of member ``field`` of an ``.npz`` written by
    :func:`write_npz`, its header checked; no other member is read."""
    _, arrays = _open_npz(path, what, backend_id, (field,))
    keys = require(arrays, field, path, what)
    if keys.ndim != 1:
        raise CorpusError(f"malformed {what} {path}: {field} {keys.shape} is not one key per row")
    return _decoded(keys, field, path, what)


def _json_lines(data: bytes, path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each line of ``data`` that is not blank.

    A line ends at ``\n`` alone, since JSON leaves U+0085, U+2028 and U+2029
    raw in a string. A line of ASCII whitespace is skipped, and the ``\r``
    of a CRLF ending is JSON whitespace. A line that is not a JSON object
    raises :class:`CorpusError` naming ``path:lineno``.
    """
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            record = _parse(line.decode("utf-8"))
        except ValueError as exc:  # invalid UTF-8, invalid JSON or a lone surrogate
            raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise CorpusError(f"{path}:{lineno}: expected a JSON object")
        yield lineno, record


def read_jsonl(path: str | Path, what: str) -> list[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON-lines file;
    ``what`` names the file if it cannot be read (see :func:`_json_lines`)."""
    return list(_json_lines(_read(path, what), path))


def journal_of(path: str | Path) -> Path:
    """The journal beside the artifact at ``path``: ``<name>.journal``."""
    target = Path(path)
    return target.with_name(target.name + ".journal")


def open_journal(path: str | Path) -> BinaryIO:
    """Open the journal at ``path`` for :func:`append_journal`.

    A torn last line is cut off first, so the line being written is the only
    one a killed process can leave torn. A journal that is new, or holds no
    complete line, gets the :func:`header` line. The caller closes the handle.
    """
    handle = Path(path).open("a+b")  # writes go to the end whatever the position
    try:
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(size - 1)
            if handle.read(1) != b"\n":
                handle.seek(0)
                size = handle.read().rfind(b"\n") + 1
                handle.truncate(size)
        if not size:
            handle.write(json.dumps(header()).encode("utf-8") + b"\n")
    except BaseException:
        handle.close()
        raise
    return handle


def append_journal(handle: BinaryIO, record: dict) -> None:
    """Append ``record`` as one compact JSON line through a handle from
    :func:`open_journal`: one write, flushed before it returns."""
    handle.write((json.dumps(record, sort_keys=True, ensure_ascii=False, separators=_COMPACT) + "\n").encode("utf-8"))
    handle.flush()


def read_journal(path: str | Path, what: str) -> list[tuple[int, dict]]:
    """(line number, object) for each record line of a journal.

    The first line is the header, checked by :func:`check_header`. A last
    line with no trailing newline was torn by a killed process and is
    dropped. Any other line that is not a JSON object raises
    :class:`CorpusError` naming ``path:lineno``.
    """
    data = _read(path, what)
    records = _json_lines(data[: data.rfind(b"\n") + 1], path)
    first = next(records, None)
    if first is None:
        return []
    check_header(first[1], path, what)
    return list(records)
