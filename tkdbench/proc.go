package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/tkd"
)

// serverProc is a running tkdserver subprocess.
type serverProc struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	drained chan struct{} // closed once the server's stdout hits EOF
}

// startServer runs bin with args plus a loopback -addr and returns once the
// server is listening (it loads every dataset before it listens).
func startServer(bin string, args []string) (*serverProc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	// If the benchmark is killed, the kernel kills the server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting tkdserver: %w", err)
	}
	p := &serverProc{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() { // reads the server's log until it exits
		defer close(p.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "msg=listening addr="); ok {
				select {
				case addrc <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case addr := <-addrc:
		p.base = "http://" + addr
		return p, nil
	case <-p.drained:
		err = errors.New("tkdserver exited before listening")
	case <-time.After(120 * time.Second):
		err = errors.New("tkdserver did not listen within 120s")
	}
	_ = p.stop()
	return nil, err
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// stop drains the server with SIGTERM (SIGKILL after 20s) and waits for it.
func (p *serverProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.drained:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.drained
	}
	err := p.cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) && !exit.Exited() {
		return nil // killed by a signal after draining was asked for
	}
	return err
}

// cpuMS is the server's utime+stime so far, from /proc/<pid>/stat.
func cpuMS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const msPerTick = 10 // USER_HZ is 100 on Linux
	return (ut + st) * msPerTick, nil
}

// hostTicks returns the steal and total jiffies of all CPUs from
// /proc/stat: time the hypervisor ran someone else on this host's CPUs
// shows as steal, and explains a slow run.
func hostTicks() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// statusMB reads a kB field of /proc/<pid>/status (VmRSS, VmHWM) in MiB.
func statusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// client is one keep-alive loopback connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 200 answer.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func queryBody(q query, workers int) []byte {
	if workers > 0 {
		return fmt.Appendf(nil, `{"k":%d,"algorithm":%q,"workers":%d}`, q.k, q.alg, workers)
	}
	return fmt.Appendf(nil, `{"k":%d,"algorithm":%q}`, q.k, q.alg)
}

func queryPath(ds int) string { return "/v1/datasets/" + dsName(ds) + "/query" }

// itemsOf extracts the raw items array of a query response.
func itemsOf(body []byte) ([]byte, error) {
	var resp struct {
		Items json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding query response: %w", err)
	}
	return resp.Items, nil
}

// query runs q and returns the raw items array of the answer.
func (c *client) query(q query) ([]byte, error) {
	b, err := c.do(http.MethodPost, queryPath(q.ds), queryBody(q, 0))
	if err != nil {
		return nil, err
	}
	return itemsOf(b)
}

func appendBody(rows []tkd.Row) ([]byte, error) {
	req := server.AppendRequest{Rows: make([]server.AppendRow, len(rows))}
	for i, r := range rows {
		vals := make([]*float64, len(r.Values))
		for d := range r.Values {
			if !math.IsNaN(r.Values[d]) {
				vals[d] = &r.Values[d]
			}
		}
		req.Rows[i] = server.AppendRow{ID: r.ID, Values: vals}
	}
	return json.Marshal(req)
}

// objects returns every dataset's published row count, by name.
func (c *client) objects() (map[string]int, error) {
	b, err := c.do(http.MethodGet, "/v1/datasets", nil)
	if err != nil {
		return nil, err
	}
	var list struct {
		Datasets []server.DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		return nil, fmt.Errorf("decoding the dataset list: %w", err)
	}
	n := make(map[string]int, len(list.Datasets))
	for _, d := range list.Datasets {
		n[d.Name] = d.Objects
	}
	return n, nil
}

// metrics scrapes /metrics, summing every sample of a family over labels.
func (c *client) metrics() (map[string]float64, error) {
	b, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		m[name] += v
	}
	return m, nil
}
