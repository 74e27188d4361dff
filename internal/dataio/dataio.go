// Package dataio reads and writes point datasets as CSV so the command-line
// tools can run on real data (one point per row, one float per column; an
// optional non-numeric header row is skipped).
package dataio

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"dpc/internal/kmedian"
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
// floor(budget) largest connection costs as outliers (center index -1).
type Assignment struct {
	Center   []int // per point; -1 for outliers
	Dist     []float64
	Outliers []int // the dropped points, farthest first
}

// Assign computes the assignment of points to centers under the given
// objective ("means" squares distances) and outlier budget: kmedian.Eval
// over metric.Cross at floor(budget), whose farthest-first order the
// outliers keep.
func Assign(pts []metric.Point, centers []metric.Point, budget float64, squared bool) Assignment {
	cross := metric.Cross{Pts: pts, Centers: centers, Squared: squared}
	all := make([]int, len(centers))
	for i := range all {
		all[i] = i
	}
	sol := kmedian.Eval(cross, nil, all, math.Floor(budget))
	a := Assignment{Center: sol.Assign, Dist: make([]float64, len(pts))}
	for j, c := range a.Center {
		a.Dist[j] = math.Inf(1)
		if c >= 0 {
			a.Dist[j] = cross.Cost(j, c)
		}
	}
	dropped := 0
	for dropped < len(sol.Order) && sol.DroppedWeight[sol.Order[dropped]] > 0 {
		a.Center[sol.Order[dropped]] = -1
		dropped++
	}
	a.Outliers = sol.Order[:dropped]
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
