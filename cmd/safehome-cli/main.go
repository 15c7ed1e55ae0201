// Command safehome-cli talks to a running safehome-hub over its HTTP API:
// inspect devices and routines, submit routine specs, manage the routine
// bank, and tail the activity log.
//
// The events subcommand tails /api/events?since=N with a cursor that can be
// persisted to a file (-cursor), so a poller resumes exactly where it left
// off — including across hub restarts, when the hub runs with -data and its
// event sequence numbers stay strictly monotonic through crash recovery.
//
// Usage:
//
//	safehome-cli -hub http://127.0.0.1:8123 status
//	safehome-cli devices
//	safehome-cli routines
//	safehome-cli submit routine.json
//	safehome-cli store routine.json
//	safehome-cli trigger evening-routine
//	safehome-cli events
//	safehome-cli events -cursor /tmp/cursor -follow
//
// Against a multi-home manager (safehome-hub -homes N), -home ID scopes
// every command to /homes/{id}/..., the routine bank included:
//
//	safehome-cli -home home-1 status
//	safehome-cli -home home-1 submit routine.json
//	safehome-cli -home home-1 store routine.json
//	safehome-cli -home home-1 trigger evening-routine
//	safehome-cli -home home-1 events -follow
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"
)

func main() {
	hubURL := flag.String("hub", "http://127.0.0.1:8123", "base URL of the safehome-hub API")
	home := flag.String("home", "", "target one home of a multi-home manager (safehome-hub -homes N)")
	timeout := flag.Duration("timeout", 5*time.Second, "HTTP request timeout")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cli := &client{base: strings.TrimRight(*hubURL, "/"), home: *home, http: &http.Client{Timeout: *timeout}}

	var err error
	switch args[0] {
	case "status":
		err = cli.printJSON("GET", cli.path("/status"), nil)
	case "devices":
		err = cli.printJSON("GET", cli.path("/devices"), nil)
	case "routines":
		err = cli.printJSON("GET", cli.path("/routines"), nil)
	case "routine":
		if len(args) < 2 {
			err = fmt.Errorf("usage: safehome-cli routine <id>")
			break
		}
		err = cli.printJSON("GET", cli.path("/routines/"+args[1]), nil)
	case "submit":
		err = cli.postFile(args[1:], cli.path("/routines"))
	case "store":
		err = cli.postFile(args[1:], cli.path("/bank"))
	case "bank":
		err = cli.printJSON("GET", cli.path("/bank"), nil)
	case "trigger":
		if len(args) < 2 {
			err = fmt.Errorf("usage: safehome-cli trigger <name>")
			break
		}
		err = cli.printJSON("POST", cli.path("/bank/"+url.PathEscape(args[1])+"/trigger"), nil)
	case "events":
		err = cli.eventsCmd(args[1:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "safehome-cli: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: safehome-cli [-hub URL] [-home ID] <command>

-home ID targets one home of a multi-home manager (safehome-hub -homes N):
every command then hits /homes/{id}/... instead of the single hub's
/api/... namespace.

commands:
  status              hub summary
  devices             device states and liveness
  routines            all routine results
  routine <id>        one routine result
  submit <spec.json>  submit a routine for execution
  store <spec.json>   save a routine definition in the bank
  bank                list stored routine names
  trigger <name>      dispatch a stored routine
  events              tail controller events (cursor-paged)
      -since N        fetch only events with sequence >= N
      -cursor FILE    resume from (and persist) the cursor in FILE
      -follow         keep polling for new events
      -interval D     poll interval with -follow (default 2s)`)
}

// eventPage mirrors the hub's cursor-paged events response.
type eventPage struct {
	Events []struct {
		Seq     uint64    `json:"seq"`
		Time    time.Time `json:"time"`
		Kind    string    `json:"kind"`
		Routine int64     `json:"routine"`
		Device  string    `json:"device"`
		State   string    `json:"state"`
		Detail  string    `json:"detail"`
	} `json:"events"`
	Next uint64 `json:"next"`
}

// eventsCmd tails /api/events?since=N. The cursor file makes the tail
// resumable: every page's next cursor is persisted, and on start the file's
// cursor (when larger than -since) wins. Cursors only ever move forward —
// the hub's event sequence numbers are strictly monotonic, surviving even a
// hub crash and recovery when the hub runs with -data.
func (c *client) eventsCmd(args []string) error {
	fs := flag.NewFlagSet("events", flag.ContinueOnError)
	since := fs.Uint64("since", 0, "fetch only events with sequence >= N")
	cursorFile := fs.String("cursor", "", "resume from (and persist) the cursor in this file")
	follow := fs.Bool("follow", false, "keep polling for new events")
	interval := fs.Duration("interval", 2*time.Second, "poll interval with -follow")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cursor := *since
	if *cursorFile != "" {
		if buf, err := os.ReadFile(*cursorFile); err == nil {
			v, perr := strconv.ParseUint(strings.TrimSpace(string(buf)), 10, 64)
			if perr != nil {
				return fmt.Errorf("cursor file %s is corrupt (%v); delete it to restart from -since", *cursorFile, perr)
			}
			if v > cursor {
				cursor = v
			}
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	for {
		var page eventPage
		if err := c.getJSON(c.path("/events")+"?since="+strconv.FormatUint(cursor, 10), &page); err != nil {
			if !*follow {
				return err
			}
			// A follow tail outlives hub restarts: report the hiccup and
			// retry next interval — the persisted cursor resumes exactly.
			fmt.Fprintf(os.Stderr, "safehome-cli: %v (retrying in %s)\n", err, *interval)
			time.Sleep(*interval)
			continue
		}
		for _, e := range page.Events {
			fmt.Printf("%6d  %s  %-18s", e.Seq, e.Time.Format(time.RFC3339), e.Kind)
			if e.Routine != 0 {
				fmt.Printf("  routine=%d", e.Routine)
			}
			if e.Device != "" {
				fmt.Printf("  device=%s", e.Device)
			}
			if e.State != "" {
				fmt.Printf("  state=%s", e.State)
			}
			if e.Detail != "" {
				fmt.Printf("  (%s)", e.Detail)
			}
			fmt.Println()
		}
		if page.Next > cursor {
			cursor = page.Next
		}
		if *cursorFile != "" {
			// Write-then-rename: a poller killed mid-write must not be left
			// with a truncated cursor that replays the whole history.
			tmp := *cursorFile + ".tmp"
			if err := os.WriteFile(tmp, []byte(strconv.FormatUint(cursor, 10)+"\n"), 0o644); err != nil {
				return err
			}
			if err := os.Rename(tmp, *cursorFile); err != nil {
				return err
			}
		}
		if !*follow {
			return nil
		}
		time.Sleep(*interval)
	}
}

// getJSON fetches path and decodes the response into out.
func (c *client) getJSON(path string, out any) error {
	payload, err := c.fetch("GET", path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(payload, out)
}

type client struct {
	base string
	home string
	http *http.Client
}

// path resolves a home-scoped endpoint: the single hub's /api namespace by
// default, or one home of a multi-home manager when -home is set.
func (c *client) path(suffix string) string {
	if c.home != "" {
		return "/homes/" + c.home + suffix
	}
	return "/api" + suffix
}

func (c *client) postFile(args []string, path string) error {
	if len(args) < 1 {
		return fmt.Errorf("a routine spec file is required")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	return c.printJSON("POST", path, data)
}

// fetchAttempts bounds fetch's retry loop on 429/503: the initial request
// plus three backed-off retries rides out a mailbox burst or a supervised
// home restart without turning a real outage into a hang.
const fetchAttempts = 4

// fetch performs one API request and returns the response payload, turning
// >= 400 statuses into errors. 429 (home overloaded) and 503 (hub or home
// restarting) responses are retried with backoff, honoring the server's
// Retry-After hint when present — capped so a misbehaving server cannot
// park the CLI for minutes.
func (c *client) fetch(method, path string, body []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		payload, retryAfter, err := c.fetchOnce(method, path, body)
		if err == nil {
			return payload, nil
		}
		if retryAfter < 0 || attempt == fetchAttempts-1 {
			return nil, err // not a back-off status, or out of retries
		}
		delay := retryAfter
		if delay <= 0 {
			// No server hint: jittered exponential backoff from 100 ms.
			delay = (100 * time.Millisecond) << attempt
			delay += time.Duration(rand.Int63n(int64(delay)/2 + 1))
		}
		if delay > 2*time.Second {
			delay = 2 * time.Second
		}
		time.Sleep(delay)
	}
}

// fetchOnce performs one HTTP round trip. retryAfter is -1 for statuses
// that must not be retried, 0 for retryable statuses without a server hint,
// and the parsed Retry-After duration otherwise.
func (c *client) fetchOnce(method, path string, body []byte) (payload []byte, retryAfter time.Duration, err error) {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, reader)
	if err != nil {
		return nil, -1, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, -1, err
	}
	defer resp.Body.Close()
	payload, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, -1, err
	}
	if resp.StatusCode >= 400 {
		retryAfter = -1
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			retryAfter = 0
			if secs, convErr := strconv.Atoi(resp.Header.Get("Retry-After")); convErr == nil && secs >= 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		return nil, retryAfter, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(payload)))
	}
	return payload, -1, nil
}

func (c *client) printJSON(method, path string, body []byte) error {
	payload, err := c.fetch(method, path, body)
	if err != nil {
		return err
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, payload, "", "  "); err != nil {
		fmt.Println(strings.TrimSpace(string(payload)))
		return nil
	}
	fmt.Println(pretty.String())
	return nil
}
