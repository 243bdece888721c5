package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type served by
// PrometheusHandler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered series in Prometheus text
// exposition format 0.0.4. Families are emitted in name order and series
// in label order, so the output is deterministic for a fixed set of
// instrument values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.sortedSeries() {
			writeSeries(bw, f, s)
		}
	}
	return bw.Flush()
}

func writeSeries(w *bufio.Writer, f *family, s *series) {
	switch {
	case s.fn != nil:
		writeSample(w, f.name, s.labels, "", s.fn())
	default:
		switch inst := s.inst.(type) {
		case *Counter:
			writeSample(w, f.name, s.labels, "", float64(inst.Value()))
		case *Gauge:
			writeSample(w, f.name, s.labels, "", float64(inst.Value()))
		case *Histogram:
			// Each bucket counter is read once; _count is the same running
			// total the +Inf bucket carries, so the two cannot disagree
			// however many Observes race the scrape.
			cum := uint64(0)
			for i, b := range inst.bounds {
				cum += inst.counts[i].Load()
				writeSample(w, f.name+"_bucket", joinLabels(s.labels, `le="`+formatFloat(b)+`"`), "", float64(cum))
			}
			cum += inst.counts[len(inst.bounds)].Load()
			writeSample(w, f.name+"_bucket", joinLabels(s.labels, `le="+Inf"`), "", float64(cum))
			writeSample(w, f.name+"_sum", s.labels, "", inst.Sum())
			writeSample(w, f.name+"_count", s.labels, "", float64(cum))
		}
	}
}

func writeSample(w *bufio.Writer, name, labels, suffix string, v float64) {
	w.WriteString(name)
	w.WriteString(suffix)
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// PrometheusHandler returns an http.Handler serving the registry in text
// exposition format. Safe on a nil registry (serves an empty body).
func PrometheusHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		r.WritePrometheus(w)
	})
}

// histGroup accumulates the bucket samples of one histogram series (one
// base family + one label set minus `le`) for semantic validation.
type histGroup struct {
	base    string
	lineNo  int // first bucket line, for error context
	buckets []histBucket
	count   float64
	hasCnt  bool
}

type histBucket struct {
	le  float64
	val float64
}

// ValidateExposition checks that data parses line-by-line as Prometheus
// text exposition format 0.0.4 (see scanExposition: comments, names,
// labels, values and the preceding # TYPE of every sample's family) and
// — for histogram families — the histogram contract per series: every
// `_bucket` sample carries a parseable `le` label, bucket counts are
// cumulative (non-decreasing in `le` order), a terminal `le="+Inf"`
// bucket exists, and the series' `_count` equals the +Inf bucket. Used
// by tests and by the oramd handler test as a format gate.
func ValidateExposition(data []byte) error {
	hists := make(map[string]*histGroup)
	err := scanExposition(data, func(s expoSample) error {
		if s.kind != "histogram" {
			return nil
		}
		// Histogram semantics: group buckets and counts by the series'
		// labels minus `le`.
		switch s.suffix {
		case "_bucket":
			le, others, ok, err := extractLe(s.labels)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("histogram bucket %s has no le label", s.name)
			}
			leV := math.Inf(1)
			if le != "+Inf" {
				leV, err = strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("bad le value %q", le)
				}
			}
			g := histGroupFor(hists, s.base, others, s.line)
			g.buckets = append(g.buckets, histBucket{le: leV, val: s.value})
		case "_count":
			g := histGroupFor(hists, s.base, s.labels, s.line)
			g.count, g.hasCnt = s.value, true
		}
		return nil
	})
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(hists))
	for key := range hists {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if err := hists[key].check(); err != nil {
			return fmt.Errorf("histogram series %s: %v (first bucket at line %d)", key, err, hists[key].lineNo)
		}
	}
	return nil
}

// expoSample is one sample line of a text exposition, resolved to its
// metric family.
type expoSample struct {
	line   int    // 1-based line number
	name   string // sample name, including any _bucket/_sum/_count suffix
	base   string // family name
	suffix string // "_bucket", "_sum", "_count", or "" for the family's own name
	kind   string // the family's # TYPE
	help   string // the family's # HELP text, "" when none preceded
	labels string // raw label block without braces, "" when unlabelled
	value  float64
}

// scanExposition parses data as Prometheus text exposition format 0.0.4
// and calls fn on every sample, in order. Every line must be blank, a
// # HELP or # TYPE comment (TYPE with a known type keyword), or a
// `name{labels} value [timestamp]` sample with a valid metric name,
// balanced quoted label values, a float value and an integer timestamp,
// whose family appeared in a preceding # TYPE line. A `_bucket`, `_sum`
// or `_count` sample belongs to the family its suffix names when that
// family is typed. The first error, the scanner's or fn's, is returned
// prefixed with its line number.
func scanExposition(data []byte, fn func(expoSample) error) error {
	typed := make(map[string]string) // family -> # TYPE
	help := make(map[string]string)  // family -> # HELP text
	for i, raw := range bytes.Split(data, []byte("\n")) {
		line := string(raw)
		if strings.TrimSpace(line) == "" {
			continue
		}
		var err error
		if strings.HasPrefix(line, "#") {
			err = scanComment(line, typed, help)
		} else {
			var s expoSample
			if s, err = scanSample(line, typed); err == nil {
				s.line, s.help = i+1, help[s.base]
				err = fn(s)
			}
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", i+1, err)
		}
	}
	return nil
}

// scanComment records a # HELP or # TYPE line.
func scanComment(line string, typed, help map[string]string) error {
	fields := strings.Fields(line)
	switch {
	case len(fields) < 3 || fields[1] != "HELP" && fields[1] != "TYPE":
		return fmt.Errorf("malformed comment %q", line)
	case fields[1] == "HELP":
		help[fields[2]] = strings.Join(fields[3:], " ")
		return nil
	case len(fields) != 4:
		return fmt.Errorf("malformed TYPE comment %q", line)
	}
	switch fields[3] {
	case "counter", "gauge", "histogram", "summary", "untyped":
		typed[fields[2]] = fields[3]
		return nil
	}
	return fmt.Errorf("unknown metric type %q", fields[3])
}

// scanSample parses one sample line against the families typed so far.
func scanSample(line string, typed map[string]string) (expoSample, error) {
	name, rest, err := parseSampleName(line)
	if err != nil {
		return expoSample{}, err
	}
	s := expoSample{name: name, base: name}
	for _, sfx := range []string{"_bucket", "_sum", "_count"} {
		if b, ok := strings.CutSuffix(name, sfx); ok && typed[b] != "" {
			s.base, s.suffix = b, sfx
			break
		}
	}
	if s.kind = typed[s.base]; s.kind == "" {
		return expoSample{}, fmt.Errorf("sample %s has no preceding # TYPE", name)
	}
	// line = name [ "{" labels "}" ] " " rest
	if body := line[len(name) : len(line)-len(rest)-1]; body != "" {
		s.labels = body[1 : len(body)-1]
	}
	val := strings.TrimSpace(rest)
	if i := strings.IndexByte(val, ' '); i >= 0 {
		ts := strings.TrimSpace(val[i+1:])
		if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
			return expoSample{}, fmt.Errorf("bad timestamp %q", ts)
		}
		val = val[:i]
	}
	// ParseFloat also reads the format's +Inf, -Inf and NaN.
	if s.value, err = strconv.ParseFloat(val, 64); err != nil {
		return expoSample{}, fmt.Errorf("bad value %q", val)
	}
	return s, nil
}

func histGroupFor(hists map[string]*histGroup, base, labels string, lineNo int) *histGroup {
	key := base
	if labels != "" {
		key += "{" + labels + "}"
	}
	g := hists[key]
	if g == nil {
		g = &histGroup{base: base, lineNo: lineNo}
		hists[key] = g
	}
	return g
}

// check enforces the histogram contract on one series' collected
// samples.
func (g *histGroup) check() error {
	if len(g.buckets) == 0 {
		return fmt.Errorf("has _count/_sum but no _bucket samples")
	}
	sort.Slice(g.buckets, func(i, j int) bool { return g.buckets[i].le < g.buckets[j].le })
	last := g.buckets[len(g.buckets)-1]
	if !math.IsInf(last.le, 1) {
		return fmt.Errorf("missing le=\"+Inf\" bucket")
	}
	for i := 1; i < len(g.buckets); i++ {
		if g.buckets[i].val < g.buckets[i-1].val {
			return fmt.Errorf("bucket counts not cumulative: le=%s is %s but le=%s is %s",
				formatFloat(g.buckets[i-1].le), formatFloat(g.buckets[i-1].val),
				formatFloat(g.buckets[i].le), formatFloat(g.buckets[i].val))
		}
	}
	if !g.hasCnt {
		return fmt.Errorf("missing _count sample")
	}
	if g.count != last.val {
		return fmt.Errorf("_count %s != le=\"+Inf\" bucket %s",
			formatFloat(g.count), formatFloat(last.val))
	}
	return nil
}

// extractLe pulls the le label out of a raw label block, returning its
// value and the block with le removed. The scan honors quoting, so
// label values containing commas or escaped quotes don't confuse it.
func extractLe(labels string) (le, others string, found bool, err error) {
	i := 0
	var parts []string
	for i < len(labels) {
		start := i
		eq := -1
		for i < len(labels) && labels[i] != '=' {
			i++
		}
		if i >= len(labels) {
			return "", "", false, fmt.Errorf("malformed label block %q", labels)
		}
		eq = i
		i++ // '='
		if i >= len(labels) || labels[i] != '"' {
			return "", "", false, fmt.Errorf("unquoted label value in %q", labels)
		}
		i++
		vstart := i
		for i < len(labels) && labels[i] != '"' {
			if labels[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(labels) {
			return "", "", false, fmt.Errorf("unterminated label value in %q", labels)
		}
		vend := i
		i++ // closing '"'
		if i < len(labels) && labels[i] == ',' {
			i++
		}
		if labels[start:eq] == "le" {
			le, found = labels[vstart:vend], true
		} else {
			parts = append(parts, labels[start:vend+1])
		}
	}
	return le, strings.Join(parts, ","), found, nil
}

// parseSampleName splits a sample line into metric name (labels
// validated and discarded) and the remainder after the name/label block.
func parseSampleName(line string) (name, rest string, err error) {
	i := 0
	for i < len(line) {
		c := line[i]
		if c == '{' || c == ' ' {
			break
		}
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return "", "", fmt.Errorf("invalid metric name char %q in %q", c, line)
		}
		i++
	}
	if i == 0 {
		return "", "", fmt.Errorf("empty metric name in %q", line)
	}
	name = line[:i]
	if i < len(line) && line[i] == '{' {
		j, err := scanLabels(line, i+1)
		if err != nil {
			return "", "", err
		}
		i = j
	}
	if i >= len(line) || line[i] != ' ' {
		return "", "", fmt.Errorf("missing value in %q", line)
	}
	return name, line[i+1:], nil
}

// scanLabels validates a {name="value",...} block starting just after
// the '{' and returns the index just past the closing '}'.
func scanLabels(line string, i int) (int, error) {
	for {
		if i < len(line) && line[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(line) && line[i] != '=' {
			c := line[i]
			if !(c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9' && i > start)) {
				return 0, fmt.Errorf("invalid label name in %q", line)
			}
			i++
		}
		if i == start || i >= len(line) {
			return 0, fmt.Errorf("malformed label block in %q", line)
		}
		i++ // '='
		if i >= len(line) || line[i] != '"' {
			return 0, fmt.Errorf("unquoted label value in %q", line)
		}
		i++
		for i < len(line) && line[i] != '"' {
			if line[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(line) {
			return 0, fmt.Errorf("unterminated label value in %q", line)
		}
		i++ // closing '"'
		if i < len(line) && line[i] == ',' {
			i++
		}
	}
}
