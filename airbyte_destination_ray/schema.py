"""JSON-Schema → Arrow schema conversion (reference parity: M7–M10).

Reproduces the type-mapping rules of the reference's
``ConvertAirbyteTypeToPropelType`` (internal/connector/types.go:11-50) and the
null-strip helper (types.go:52-62), targeting ``pyarrow`` types instead of
Propel column types:

| JSON-Schema property                | Arrow type                         |
|-------------------------------------|------------------------------------|
| absent / empty type set             | string (default)                   |
| ``null`` entries                    | stripped before deciding           |
| >1 non-null types                   | string (lowest common denominator) |
| string + format date                | date32                             |
| string + format date-time           | timestamp[us, UTC]                 |
| string + format time                | string                             |
| string (no format)                  | string                             |
| boolean                             | bool                               |
| number                              | float64                            |
| integer                             | int64                              |
| object / array                      | string (JSON-serialized)           |
| anything else                       | UnsupportedTypeError               |

Nullability (reference destination.go:310): a column is nullable unless it is
a primary-key column or the cursor field.  Two metadata columns are appended
to every table (destination.go:23-26, 31-45): ``_airbyte_raw_id: string NOT
NULL`` and ``_airbyte_extracted_at: timestamp[us, UTC] NOT NULL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa

RAW_ID_COLUMN = "_airbyte_raw_id"
EXTRACTED_AT_COLUMN = "_airbyte_extracted_at"

GENERAL_TYPES = {"string", "boolean", "number", "integer", "object", "array", "null"}


class UnsupportedTypeError(ValueError):
    """Raised for a JSON-Schema type outside the supported matrix.

    Mirrors the hard error ``"airbyte type %s:%s:%s not supported"``
    (reference types.go:47-48).
    """


@dataclass(frozen=True)
class PropertySpec:
    """One JSON-Schema property: type(s) + optional format / airbyte_type.

    ``types`` may come from a single string or a list in the raw JSON — the
    normalization (reference protocol.go:164-196, PropTypes.UnmarshalJSON)
    happens in :func:`property_spec_from_json`.
    """

    types: tuple[str, ...] = ()
    format: str = ""
    airbyte_type: str = ""  # declared but never consulted — parity with types.go:11-50


def property_spec_from_json(prop: dict) -> PropertySpec:
    """Normalize a raw JSON-Schema property dict (M9).

    ``"type": "string"`` and ``"type": ["null", "string"]`` both become a
    tuple, mirroring the reference's PropTypes.UnmarshalJSON
    (protocol.go:171-188).
    """
    raw = prop.get("type")
    if raw is None:
        types: tuple[str, ...] = ()
    elif isinstance(raw, str):
        types = (raw,)
    elif isinstance(raw, list):
        types = tuple(raw)
    else:
        raise UnsupportedTypeError(f"malformed type declaration: {raw!r}")
    return PropertySpec(
        types=types,
        format=prop.get("format", ""),
        airbyte_type=prop.get("airbyte_type", ""),
    )


def strip_null_types(types: tuple[str, ...]) -> tuple[str, ...]:
    """Drop ``"null"`` entries (M8; reference types.go:52-62)."""
    return tuple(t for t in types if t != "null")


def arrow_type_for_property(spec: PropertySpec) -> pa.DataType:
    """The M7 conversion matrix (reference types.go:11-50), Arrow-targeted."""
    if not spec.types:
        return pa.string()
    types = strip_null_types(spec.types)
    if not types:
        return pa.string()
    if len(types) > 1:
        return pa.string()
    t = types[0]
    if t == "string":
        if spec.format == "date":
            return pa.date32()
        if spec.format == "date-time":
            return pa.timestamp("us", tz="UTC")
        # format "time" and no-format both map to string (types.go:35-38)
        return pa.string()
    if t == "boolean":
        return pa.bool_()
    if t == "number":
        return pa.float64()
    if t == "integer":
        return pa.int64()
    if t in ("object", "array"):
        # JSON-serialized string column, exactly like the reference's JSON type
        return pa.string()
    raise UnsupportedTypeError(
        f"airbyte type {t}:{spec.format}:{spec.airbyte_type} not supported"
    )


def is_json_property(spec: PropertySpec) -> bool:
    """True when the property maps to the JSON (serialized) column class."""
    types = strip_null_types(spec.types)
    return len(types) == 1 and types[0] in ("object", "array")


def build_table_schema(
    json_properties: dict[str, dict],
    primary_key: list[str] | None = None,
    cursor_field: str | None = None,
    *,
    with_airbyte_columns: bool = True,
) -> pa.Schema:
    """Derive the Arrow schema for a stream's destination table.

    Mirrors the column derivation of the reference's
    ``buildAndCreateDataSource`` (destination.go:298-321): every declared
    property becomes a column via the M7 matrix; nullable iff neither PK nor
    cursor (M10, destination.go:310); the two ``_airbyte_*`` metadata columns
    are appended non-null (destination.go:23-26).
    """
    pk = set(primary_key or [])
    fields: list[pa.Field] = []
    for name, raw in json_properties.items():
        spec = property_spec_from_json(raw)
        dtype = arrow_type_for_property(spec)
        nullable = name not in pk and name != cursor_field
        fields.append(pa.field(name, dtype, nullable=nullable))
    if with_airbyte_columns:
        fields.append(pa.field(RAW_ID_COLUMN, pa.string(), nullable=False))
        fields.append(
            pa.field(EXTRACTED_AT_COLUMN, pa.timestamp("us", tz="UTC"), nullable=False)
        )
    return pa.schema(fields)


# ---------------------------------------------------------------------------
# Schema-evolution primitives (north-rule additions; the reference has no
# in-band evolution — schema is fixed at Data Source creation,
# destination.go:298-321 — so these are additive, applied only at epoch
# boundaries).
# ---------------------------------------------------------------------------

_WIDENINGS: dict[tuple[str, str], bool] = {}


def _is_widening(src: pa.DataType, dst: pa.DataType) -> bool:
    """True if src → dst is a lossless widen (int32→int64, float32→float64, …)."""
    numeric_rank = {
        pa.int8(): 1,
        pa.int16(): 2,
        pa.int32(): 3,
        pa.int64(): 4,
    }
    float_rank = {pa.float32(): 1, pa.float64(): 2}
    if src in numeric_rank and dst in numeric_rank:
        return numeric_rank[src] <= numeric_rank[dst]
    if src in float_rank and dst in float_rank:
        return float_rank[src] <= float_rank[dst]
    if src in numeric_rank and dst in float_rank:
        return True
    return src.equals(dst)


@dataclass
class VersionedSchema:
    """A table schema version with stable column ids.

    Column ids make rename-by-id well-defined: evolution step 3 of
    FIXTURES.md §B3 renames ``lang`` → ``language`` while keeping the id, so
    old data files (written under the old name) are mapped to the new name at
    read/merge time.
    """

    version: int
    schema: pa.Schema
    column_ids: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.column_ids:
            self.column_ids = {n: i for i, n in enumerate(self.schema.names)}

    def name_for_id(self, cid: int) -> str | None:
        for n, i in self.column_ids.items():
            if i == cid:
                return n
        return None

    def evolve_add(self, name: str, dtype: pa.DataType) -> "VersionedSchema":
        if name in self.schema.names:
            raise ValueError(f"column {name!r} already exists")
        new_schema = self.schema.append(pa.field(name, dtype, nullable=True))
        ids = dict(self.column_ids)
        ids[name] = max(ids.values(), default=-1) + 1
        return VersionedSchema(self.version + 1, new_schema, ids)

    def evolve_widen(self, name: str, dtype: pa.DataType) -> "VersionedSchema":
        idx = self.schema.get_field_index(name)
        if idx < 0:
            raise ValueError(f"no column {name!r}")
        old = self.schema.field(idx)
        if not _is_widening(old.type, dtype):
            raise ValueError(f"{old.type} → {dtype} is not a widening cast")
        new_schema = self.schema.set(idx, pa.field(name, dtype, nullable=old.nullable))
        return VersionedSchema(self.version + 1, new_schema, dict(self.column_ids))

    def evolve_rename(self, old_name: str, new_name: str) -> "VersionedSchema":
        idx = self.schema.get_field_index(old_name)
        if idx < 0:
            raise ValueError(f"no column {old_name!r}")
        if new_name in self.schema.names:
            raise ValueError(f"column {new_name!r} already exists")
        old = self.schema.field(idx)
        new_schema = self.schema.set(
            idx, pa.field(new_name, old.type, nullable=old.nullable)
        )
        ids = dict(self.column_ids)
        ids[new_name] = ids.pop(old_name)
        return VersionedSchema(self.version + 1, new_schema, ids)


def align_table(table: pa.Table, target: VersionedSchema, source: VersionedSchema) -> pa.Table:
    """Rewrite a batch written under ``source`` to ``target``'s schema.

    rename-by-id → rename, widen → cast, add → null-fill, drop → removed.
    Pure Arrow, zero row copies where possible (rename is metadata-only;
    null-fill appends an all-null array).
    """
    # map source column name -> target column name via shared column ids
    id_to_target = {cid: name for name, cid in target.column_ids.items()}
    renames = {}
    for name, cid in source.column_ids.items():
        tgt = id_to_target.get(cid)
        if tgt is not None and tgt != name and name in table.column_names:
            renames[name] = tgt
    if renames:
        table = table.rename_columns([renames.get(n, n) for n in table.column_names])

    n = table.num_rows
    arrays: list[pa.ChunkedArray | pa.Array] = []
    for f in target.schema:
        if f.name in table.column_names:
            col = table.column(f.name)
            if not col.type.equals(f.type):
                col = col.cast(f.type)
            arrays.append(col)
        else:
            arrays.append(pa.nulls(n, f.type))
    # all-nullable physical schema: snapshot files written fresh don't carry
    # the declared not-null flags, and merge concat requires exact equality
    physical = pa.schema([pa.field(f.name, f.type) for f in target.schema])
    return pa.Table.from_arrays(arrays, schema=physical)
