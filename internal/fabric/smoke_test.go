package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"roadtrojan/internal/serve"
)

// TestFabricSmoke is the check.sh fabric gate: a gateway fronting two real
// (untrained-detector) nodes completes one evaluate round-trip over real
// TCP and the whole fabric drains cleanly — every Serve loop exits nil,
// every Close returns nil, nothing is left in flight.
func TestFabricSmoke(t *testing.T) {
	det := fabricDetector()
	cfg := serve.Config{Workers: 2, QueueSize: 4, JobTimeout: 30 * time.Second}
	nodes := startNodes(t, det, 2, cfg, nil)
	g := NewGateway(GatewayConfig{Nodes: nodeAddrs(nodes)})
	waitRoutable(t, g, nodeAddrs(nodes)...)
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()

	body, err := json.Marshal(evalReq(t, 21))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(gwSrv.URL+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate round-trip: status %d body %s", resp.StatusCode, out.Bytes())
	}
	var eresp serve.EvalResponse
	if err := json.Unmarshal(out.Bytes(), &eresp); err != nil {
		t.Fatalf("decode evaluate response: %v", err)
	}
	if eresp.Frames <= 0 {
		t.Errorf("evaluate returned %d frames, want > 0", eresp.Frames)
	}

	// Clean drain: nodes first (each sends the gateway a draining Health
	// frame), then the gateway, then the executors.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, fn := range nodes {
		if err := fn.node.Close(ctx); err != nil {
			t.Fatalf("node %s close: %v", fn.addr, err)
		}
		select {
		case err := <-fn.served:
			if err != nil {
				t.Fatalf("node %s serve loop: %v", fn.addr, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("node %s serve loop never exited", fn.addr)
		}
	}
	if err := g.Close(ctx); err != nil {
		t.Fatalf("gateway close: %v", err)
	}
	for _, fn := range nodes {
		if err := fn.exec.Close(ctx); err != nil {
			t.Fatalf("executor close: %v", err)
		}
		if fn.exec.Inflight() != 0 || fn.exec.QueueDepth() != 0 {
			t.Fatalf("node %s drained dirty: inflight=%d queued=%d",
				fn.addr, fn.exec.Inflight(), fn.exec.QueueDepth())
		}
	}
}
