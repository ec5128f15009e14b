"""Small shared utilities: RNG handling, validation, tables, serialization."""

from repro.utils.rng import (
    make_rng,
    spawn_rngs,
    derive_seed,
    RNG_POLICIES,
    check_rng_policy,
    StreamLayout,
    SpawnedStreams,
    CounterStreams,
    make_streams,
    as_stream_layout,
)
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_in_range,
    check_integer,
    check_array_1d,
    check_index_array,
    check_same_length,
)
from repro.utils.tables import Table, format_float, format_scientific
from repro.utils.serialization import (
    to_json,
    from_json,
    write_json,
    read_json,
    write_csv,
    rows_to_csv_text,
)

__all__ = [
    "make_rng",
    "spawn_rngs",
    "derive_seed",
    "RNG_POLICIES",
    "check_rng_policy",
    "StreamLayout",
    "SpawnedStreams",
    "CounterStreams",
    "make_streams",
    "as_stream_layout",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
    "check_integer",
    "check_array_1d",
    "check_index_array",
    "check_same_length",
    "Table",
    "format_float",
    "format_scientific",
    "to_json",
    "from_json",
    "write_json",
    "read_json",
    "write_csv",
    "rows_to_csv_text",
]
