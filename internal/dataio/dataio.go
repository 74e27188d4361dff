// Package dataio reads and writes point datasets as CSV so the command-line
// tools can run on real data (one point per row, one float per column; an
// optional non-numeric header row is skipped).
package dataio

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"dpc/internal/metric"
)

// ReadPointsCSV parses a CSV stream of points. All rows must have the same
// number of numeric columns; a single leading non-numeric row is treated as
// a header and skipped.
func ReadPointsCSV(r io.Reader) ([]metric.Point, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validate ourselves for better errors
	var pts []metric.Point
	dim := -1
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataio: row %d: %w", row+1, err)
		}
		row++
		p := make(metric.Point, len(rec))
		ok := true
		for i, cell := range rec {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				ok = false
				break
			}
			p[i] = v
		}
		if !ok {
			if row == 1 && len(pts) == 0 {
				continue // header
			}
			return nil, fmt.Errorf("dataio: row %d: non-numeric cell", row)
		}
		if dim == -1 {
			dim = len(p)
		} else if len(p) != dim {
			return nil, fmt.Errorf("dataio: row %d has %d columns, want %d", row, len(p), dim)
		}
		pts = append(pts, p)
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("dataio: no points")
	}
	return pts, nil
}

// WritePointsCSV writes points as CSV rows.
func WritePointsCSV(w io.Writer, pts []metric.Point) error {
	cw := csv.NewWriter(w)
	for _, p := range pts {
		rec := make([]string, len(p))
		for i, v := range p {
			rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SplitRoundRobin partitions points across s sites deterministically.
func SplitRoundRobin(pts []metric.Point, s int) [][]metric.Point {
	if s < 1 {
		s = 1
	}
	sites := make([][]metric.Point, s)
	for i, p := range pts {
		sites[i%s] = append(sites[i%s], p)
	}
	// Drop empty tails when s > n.
	out := sites[:0]
	for _, site := range sites {
		if len(site) > 0 {
			out = append(out, site)
		}
	}
	return out
}

// Assignment labels every point with its nearest center and marks the
// `budget` largest connection costs as outliers (center index -1).
type Assignment struct {
	Center   []int // per point; -1 for outliers
	Dist     []float64
	Outliers []int // the dropped points, farthest first
}

// Assign computes the assignment of points to centers under the given
// objective ("means" squares distances) and outlier budget.
func Assign(pts []metric.Point, centers []metric.Point, budget float64, squared bool) Assignment {
	n := len(pts)
	a := Assignment{Center: make([]int, n), Dist: make([]float64, n)}
	order := make([]int, n)
	for j, p := range pts {
		best, bd := -1, math.Inf(1)
		for c, cp := range centers {
			x := metric.L2(p, cp)
			if squared {
				x = metric.SqL2(p, cp)
			}
			if x < bd {
				bd, best = x, c
			}
		}
		a.Center[j] = best
		a.Dist[j] = bd
		order[j] = j
	}
	sort.Slice(order, func(x, y int) bool { return a.Dist[order[x]] > a.Dist[order[y]] })
	a.Outliers = order[:min(int(budget), n)]
	for _, j := range a.Outliers {
		a.Center[j] = -1
	}
	return a
}

// WriteAssignmentCSV writes "index,center,distance" rows (center -1 marks
// an outlier).
func WriteAssignmentCSV(w io.Writer, a Assignment) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"index", "center", "distance"}); err != nil {
		return err
	}
	for j := range a.Center {
		rec := []string{
			strconv.Itoa(j),
			strconv.Itoa(a.Center[j]),
			strconv.FormatFloat(a.Dist[j], 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
