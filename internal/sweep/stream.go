package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Stream framing: the serve API's streaming endpoint emits a sweep's
// result incrementally — a header chunk, one chunk per row as it
// completes, and a footer chunk — framed so that the byte concatenation
// of every chunk is exactly Result.JSON() for the finished sweep, which
// is exactly what `pvsim sweep -format json` prints. A client that saves
// the stream to a file holds the serial report, byte for byte; a client
// that parses chunk by chunk sees partial results as they land. The
// framing lives here, next to the Result encoder it must stay in lockstep
// with, and TestStreamFramingByteIdentical pins the equivalence.

// rowsArrayOpen is the byte sequence introducing the rows array inside
// Result.JSON(); the header chunk is everything up to and including it.
var rowsArrayOpen = []byte(`"rows": [`)

// streamHeaderForJobs renders the stream's opening chunk for a normalized
// grid whose job count the caller already expanded: the Result's
// grid/hash/jobs preamble up to and including the opening bracket of the
// rows array. It is the expansion-free core of Grid.Plan.
func streamHeaderForJobs(g Grid, jobs int) ([]byte, error) {
	// Encode the full Result skeleton with zero rows, then cut it at the
	// rows array: because Rows is the struct's last field, everything
	// before the final `"rows": []` is byte-identical to the populated
	// encoding. (Grid carries no field or name that can contain the
	// literal `"rows": [`, so the last occurrence is the rows array.)
	empty, err := (&Result{Grid: g, Hash: g.Hash(), Jobs: jobs, Rows: []Row{}}).JSON()
	if err != nil {
		return nil, err
	}
	i := bytes.LastIndex(empty, rowsArrayOpen)
	if i < 0 {
		return nil, fmt.Errorf("sweep: result encoding lost its rows array")
	}
	return empty[:i+len(rowsArrayOpen)], nil
}

// StreamRow renders row number i (0-based, in expansion order) as one
// stream chunk: the leading separator (",\n" between elements, "\n" after
// the array opens) plus the row indented to its position inside the rows
// array.
func StreamRow(row Row, i int) ([]byte, error) {
	var b bytes.Buffer
	if i == 0 {
		b.WriteByte('\n')
	} else {
		b.WriteString(",\n")
	}
	// Indent to the rows-array element depth: two levels of the report
	// encoder's two-space indent. The encoder applies the prefix to every
	// line after the first, so the first line's indent is written here.
	b.WriteString("    ")
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("    ", "  ")
	if err := enc.Encode(row); err != nil {
		return nil, err
	}
	// Encode appends a newline the framing does not want: the next chunk
	// (a row separator or the footer) supplies it.
	return bytes.TrimSuffix(b.Bytes(), []byte("\n")), nil
}

// StreamFooter closes the stream: the rows array's closing bracket and the
// document's closing brace, matching Result.JSON()'s tail for jobs rows
// (an empty rows array closes inline, exactly like the encoder renders an
// empty slice).
func StreamFooter(jobs int) []byte {
	if jobs == 0 {
		return []byte("]\n}\n")
	}
	return []byte("\n  ]\n}\n")
}

// RowLine renders one row as a single compact NDJSON line (trailing
// newline included): the streaming endpoint's line-oriented format for
// clients that want one JSON value per row rather than the framed report.
func RowLine(row Row) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(row); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
