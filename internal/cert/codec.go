package cert

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/aig"
	"repro/internal/cnf"
)

// Encode serializes the certificate into a self-contained text blob: a
// header line naming the certified existential variables in ascending
// order, followed by the function cones as one deterministic ASCII-AIGER
// (aag) unit with one output per variable, in header order. The encoding is
// the wire form of a certificate — the cluster coordinator ships per-cube
// Skolem certificates between hqsd workers and the hqsc merge step with it —
// and is deterministic for a given certificate, so equal certificates encode
// to equal bytes.
func Encode(c *Certificate) ([]byte, error) {
	if c == nil || c.G == nil {
		return nil, fmt.Errorf("cert: cannot encode a nil certificate")
	}
	vars := make([]cnf.Var, 0, len(c.Funcs))
	for v := range c.Funcs {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "skolem 1 %d", len(vars))
	outs := make([]aig.Ref, len(vars))
	for i, v := range vars {
		fmt.Fprintf(&buf, " %d", v)
		outs[i] = c.Funcs[v]
	}
	buf.WriteByte('\n')
	if err := c.G.WriteAAG(&buf, outs...); err != nil {
		return nil, fmt.Errorf("cert: encoding function cones: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode parses a certificate produced by Encode. The result is
// self-contained: its functions live in a fresh graph, exactly like a
// certificate extracted in-process, so Check accepts it unchanged.
func Decode(data []byte) (*Certificate, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("cert: decoding header: %w", err)
	}
	fields := strings.Fields(header)
	if len(fields) < 3 || fields[0] != "skolem" {
		return nil, fmt.Errorf("cert: bad certificate header %q", header)
	}
	version, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("cert: bad certificate header %q", header)
	}
	if version != 1 {
		return nil, fmt.Errorf("cert: unknown certificate encoding version %d", version)
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("cert: bad function count %q", fields[2])
	}
	if len(fields) != 3+n {
		return nil, fmt.Errorf("cert: header names %d variables, found %d", n, len(fields)-3)
	}
	vars := make([]cnf.Var, n)
	for i := range vars {
		v, err := strconv.ParseInt(fields[3+i], 10, 32)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("cert: bad certificate variable %q", fields[3+i])
		}
		vars[i] = cnf.Var(v)
	}
	g, outs, err := aig.ReadAAG(br)
	if err != nil {
		return nil, fmt.Errorf("cert: decoding function cones: %w", err)
	}
	if len(outs) != len(vars) {
		return nil, fmt.Errorf("cert: blob has %d cones for %d variables", len(outs), len(vars))
	}
	c := &Certificate{G: g, Funcs: make(map[cnf.Var]aig.Ref, len(vars))}
	for i, v := range vars {
		if _, dup := c.Funcs[v]; dup {
			return nil, fmt.Errorf("cert: duplicate certificate variable %d", v)
		}
		c.Funcs[v] = outs[i]
	}
	return c, nil
}
