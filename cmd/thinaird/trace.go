package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"

	"repro/internal/httpapi"
	"repro/internal/obs"
)

// runTrace is `thinaird trace`: it fetches span events from a daemon or
// coordinator /debug/trace endpoint and renders them as a causal chain,
// one line per event, offsets relative to the span's first event.
//
//	thinaird trace -connect http://localhost:9309                 # recent events
//	thinaird trace -connect http://localhost:9309 -span 01ab...   # one span's chain
func runTrace(args []string) {
	fs := flag.NewFlagSet("thinaird trace", flag.ExitOnError)
	var (
		connect = fs.String("connect", "http://localhost:9309", "daemon or coordinator base URL")
		span    = fs.String("span", "", "span ID to filter on (default: recent events)")
		n       = fs.Int("n", 64, "events to fetch when unfiltered")
	)
	_ = fs.Parse(args)

	url := fmt.Sprintf("%s/debug/trace?n=%d", *connect, *n)
	if *span != "" {
		url = fmt.Sprintf("%s/debug/trace?span=%s", *connect, *span)
	}
	var events []obs.SpanEvent
	fatal(httpapi.DoJSON(context.Background(), http.DefaultClient, http.MethodGet, url, nil, &events))
	if len(events) == 0 {
		fmt.Println("trace: no events")
		return
	}
	fmt.Print(obs.RenderTrace(events))
}
