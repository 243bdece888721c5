package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Cluster metrics federation: MergeExpositions takes the Prometheus
// text exposition scraped from every node and renders one merged
// exposition with (a) a cluster-level aggregate per series — gauges
// take the max across nodes, counters and histogram components sum, so
// cumulative `le` buckets stay cumulative — and (b) every node's own
// series re-labelled with node="<id>" so per-node values remain
// queryable. Nodes that failed to scrape contribute only
// cluster_node_up{node="..."} 0.

// NodeExposition is one node's scrape result.
type NodeExposition struct {
	Node string
	Data []byte
	Err  error
}

// fedFamily accumulates one metric family across nodes.
type fedFamily struct {
	name string
	help string
	kind string
	// aggregate across nodes, keyed by name + label block
	agg      map[string]float64
	aggOrder []string
	// per-node samples, in node order then exposition order
	perNode []fedNodeSample
}

type fedNodeSample struct {
	node string
	expoSample
}

// MergeExpositions writes the merged cluster exposition. Per family the
// HELP/TYPE header is emitted once (first node's wording wins),
// followed by the aggregated series and then the node="..." series.
// Output is deterministic for deterministic inputs and passes
// ValidateExposition.
func MergeExpositions(w io.Writer, nodes []NodeExposition) error {
	fams := make(map[string]*fedFamily)
	var famOrder []string
	for _, n := range nodes {
		if n.Err != nil {
			continue
		}
		if err := mergeNode(fams, &famOrder, n); err != nil {
			return fmt.Errorf("obs: node %s: %w", n.Node, err)
		}
	}
	sort.Strings(famOrder)
	bw := bufio.NewWriter(w)
	bw.WriteString("# HELP cluster_node_up Whether the node's metrics scrape succeeded.\n")
	bw.WriteString("# TYPE cluster_node_up gauge\n")
	for _, n := range nodes {
		up := 1
		if n.Err != nil {
			up = 0
		}
		fmt.Fprintf(bw, "cluster_node_up{node=%q} %d\n", n.Node, up)
	}
	for _, name := range famOrder {
		f := fams[name]
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, key := range f.aggOrder {
			bw.WriteString(key)
			bw.WriteByte(' ')
			bw.WriteString(formatFloat(f.agg[key]))
			bw.WriteByte('\n')
		}
		for _, s := range f.perNode {
			bw.WriteString(s.name)
			bw.WriteByte('{')
			bw.WriteString(joinLabels(s.labels, `node="`+escapeLabelValue(s.node)+`"`))
			bw.WriteString("} ")
			bw.WriteString(formatFloat(s.value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// mergeNode folds one node's exposition into fams.
func mergeNode(fams map[string]*fedFamily, order *[]string, n NodeExposition) error {
	return scanExposition(n.Data, func(s expoSample) error {
		f := fams[s.base]
		if f == nil {
			f = &fedFamily{
				name: s.base,
				help: s.help,
				kind: s.kind,
				agg:  make(map[string]float64),
			}
			fams[s.base] = f
			*order = append(*order, s.base)
		}
		key := s.name
		if s.labels != "" {
			key += "{" + s.labels + "}"
		}
		cur, seen := f.agg[key]
		if !seen {
			f.aggOrder = append(f.aggOrder, key)
			f.agg[key] = s.value
		} else if f.kind == "gauge" {
			if s.value > cur {
				f.agg[key] = s.value
			}
		} else {
			f.agg[key] = cur + s.value
		}
		f.perNode = append(f.perNode, fedNodeSample{node: n.Node, expoSample: s})
		return nil
	})
}
