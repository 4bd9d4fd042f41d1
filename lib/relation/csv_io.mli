(** Minimal CSV import/export so example programs can persist and reload
    generated datasets. Quoting follows RFC 4180 (double quotes, doubled
    quote escapes); values are parsed back under column types inferred
    from the data, with empty fields read as [Null].

    Two readers share one scanner. {!read_auto} infers the schema and
    builds the table, and {!read_rows} does the same scan for a server
    that needs only a few rows of the table (see {!Table.sampled}).

    The scanner reads the whole file, to end of file (a pipe or FIFO
    works), into a buffer owned by the calling domain, and splits it in
    one typed pass. Each field's bounds go to a second reused buffer, with
    its value when it is a decimal int of 1 to 18 digits after an optional
    ['-'], read as its digits are scanned; and a column is flagged when
    one of its data fields is neither empty nor such an int (the header
    flags none). Schema inference then parses the fields of flagged
    columns only, with the stdlib, so an all-int file is typed without a
    second pass over its fields. A field that opens with a quote is a
    rare branch of the same loop: it is unescaped in place in the file
    image, and its text always goes to the stdlib. The buffers grow to the
    largest file the domain has read and are never shrunk, so a warm read
    allocates the table it returns and little else, until
    {!release_buffers} drops them. Domains reading at once each use their
    own buffers.

    The format, quirks included:
    - records are split on ['\n'] only; a ['\r'] stays in its field;
    - blank lines are skipped but still count in line numbers (the header
      is line 1, and is read even when blank);
    - a field that starts with a double quote is quoted: a doubled quote
      inside it is one quote, and after its closing quote anything other
      than a comma ends the record, dropping the rest of the line; a
      quote inside an unquoted field is an ordinary character;
    - a quote still open at the end of its line is an error for that
      line (records never span lines). *)

val write : string -> Table.t -> unit
(** [write path table] writes a header row (column names) plus one line per
    row. Raises [Sys_error] on IO failure. *)

val read_auto : string -> Table.t
(** [read_auto path] reads a CSV without a known schema: column names come
    from the header and each column's type is inferred from the data
    (int if every non-empty field parses as an int, else float if every
    non-empty field parses as a number, else string; parsing is
    [int_of_string] / [float_of_string], so [0x1F], [1_000] or [nan]
    count). The inferred schema does not depend on the order of the data
    rows: a field that reads only as an int ([0b101], [0o17], [0u5]) in a
    column holding a non-int such as [1.5] makes the column a string
    column. Failures, in the order they are checked:
    - [Sys_error] when the file cannot be opened or read;
    - [Failure "empty CSV file"] for a file of zero bytes;
    - [Failure "line N: unterminated quote in field K"] for the first such
      line anywhere in the file, header included;
    - [Failure "line N: expected A fields, got B"] for the first record,
      in file order, whose field count differs from the header's;
    - [Invalid_argument] from {!Schema.make} for a duplicate header name. *)

val read_rows : string -> columns:string list -> rows:int array -> Table.sampled
(** [read_rows path ~columns ~rows] is what {!Table.read_rows} returns for
    [read_auto path], from one scan that builds no whole table: the same
    checks, failures (in the same order) and whole-column typing; the
    cardinality; {!Table.fingerprint} hashed from the scanned fields cell
    by cell, in the byte order it uses; {!Table.distinct_count} of each
    named column, counted over every data row; and only the requested
    rows inside [[0, cardinality)], in request order. A named column the
    header lacks raises [Invalid_argument] with {!Table.distinct_count}'s
    text, after every failure of {!read_auto}. The scan reuses the
    calling domain's buffers, as {!read_auto} does, so with no named
    column it allocates little beyond the requested rows (a string per
    float cell and per cell the fast int path cannot read); a named
    column costs a value per non-empty cell and a table of its distinct
    values. *)

val release_buffers : unit -> unit
(** Drop the calling domain's scanner buffers (see above), so that they
    can be collected; its next read builds new ones. For a domain that is
    done reading: [repro_cli serve] calls it on its main domain once
    [Engine.create] has read every CSV there (requests and [reload] run
    on worker domains, which keep theirs for the misses they serve), then
    runs one full major collection. *)
