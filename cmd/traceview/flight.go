package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"surfnet/internal/service"
)

// Flight reports render the request-scoped timelines surfnetd serves at
// GET /v1/transfers/{id}/trace and bundles (with status, metrics, and fault
// state) at GET /debug/bundle: where each transfer's admission-to-terminal
// wall time went (queue_wait, plan, execute, retry_backoff, fault_stall),
// event by event.

// ms renders nanoseconds as milliseconds.
func ms(ns int64) string { return fmt.Sprintf("%.3fms", float64(ns)/1e6) }

// renderFlight prints one flight's timeline and attribution.
func renderFlight(w io.Writer, tr service.FlightTrace) {
	head := fmt.Sprintf("flight %s  state=%s", tr.ID, tr.State)
	if tr.FailureClass != "" {
		head += "  class=" + tr.FailureClass
	}
	if tr.Tenant != "" {
		head += "  tenant=" + tr.Tenant
	}
	head += fmt.Sprintf("  retries=%d  total=%s (%d ticks)", tr.Retries, ms(tr.TotalWallNs), tr.TotalTicks)
	if tr.DroppedEvents > 0 {
		head += fmt.Sprintf("  dropped=%d", tr.DroppedEvents)
	}
	fmt.Fprintln(w, head)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  seq\tt+wall\ttick\tevent\tdetail")
	// Timestamps render relative to the flight's first event; the last
	// event's stamp minus the total recovers that origin even when the ring
	// has dropped the first events.
	base := int64(0)
	if n := len(tr.Events); n > 0 {
		base = tr.Events[n-1].WallNs - tr.TotalWallNs
	}
	for _, ev := range tr.Events {
		detail := ev.Note
		if len(ev.Detail) > 0 {
			keys := make([]string, 0, len(ev.Detail))
			for k := range ev.Detail {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys)+1)
			if detail != "" {
				parts = append(parts, detail)
			}
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s=%d", k, ev.Detail[k]))
			}
			detail = strings.Join(parts, " ")
		}
		fmt.Fprintf(tw, "  %d\t%s\t%d\t%s\t%s\n", ev.Seq, ms(ev.WallNs-base), ev.Tick, ev.Kind, detail)
	}
	tw.Flush()

	if len(tr.Segments) > 0 {
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  attribution\twall\tshare\tticks")
		for _, seg := range tr.Segments {
			share := 0.0
			if tr.TotalWallNs > 0 {
				share = 100 * float64(seg.WallNs) / float64(tr.TotalWallNs)
			}
			fmt.Fprintf(tw, "  %s\t%s\t%.1f%%\t%d\n", seg.Class, ms(seg.WallNs), share, seg.Ticks)
		}
		tw.Flush()
	}
}

// renderRollup prints the cross-flight attribution totals of a bundle.
func renderRollup(w io.Writer, flights []service.FlightTrace) {
	segNs := map[string]int64{}
	var totalNs int64
	for _, tr := range flights {
		totalNs += tr.TotalWallNs
		for _, seg := range tr.Segments {
			segNs[seg.Class] += seg.WallNs
		}
	}
	classes := make([]string, 0, len(segNs))
	for class := range segNs {
		classes = append(classes, class)
	}
	sort.Slice(classes, func(i, j int) bool { return segNs[classes[i]] > segNs[classes[j]] })
	fmt.Fprintf(w, "attribution rollup over %d flights  total=%s\n", len(flights), ms(totalNs))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  class\twall\tshare")
	for _, class := range classes {
		share := 0.0
		if totalNs > 0 {
			share = 100 * float64(segNs[class]) / float64(totalNs)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%.1f%%\n", class, ms(segNs[class]), share)
	}
	tw.Flush()
}

// writeFlights renders every flight in order and, for more than one, the
// cross-flight rollup.
func writeFlights(w io.Writer, flights []service.FlightTrace) {
	for i, tr := range flights {
		if i > 0 {
			fmt.Fprintln(w)
		}
		renderFlight(w, tr)
	}
	if len(flights) > 1 {
		fmt.Fprintln(w)
		renderRollup(w, flights)
	}
}
