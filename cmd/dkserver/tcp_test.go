package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	dkclique "repro"
	"repro/internal/framesrv"
	"repro/internal/httpapi"
	"repro/internal/respcache"
)

// TestTCPTransportWiring drives the exact dual-transport wiring main()
// assembles — public dkclique.Service, one shared respcache.Snapshot,
// HTTP handler and frame server mounted on it — and pins the
// cross-transport contract: both answer a snapshot version with the
// same pre-encoded bytes, the subscribe stream works through the public
// request encoders, and shutdown drains cleanly.
func TestTCPTransportWiring(t *testing.T) {
	g, err := dkclique.Generate(dkclique.CommunitySocial(400, 8, 0.3, 800, 21))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dkclique.Find(g, dkclique.Options{K: 3, Algorithm: dkclique.LP})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := dkclique.NewService(g, 3, res.Cliques, dkclique.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })

	// Both transports share one body cache and one small batch cap.
	const maxOps = 4
	cache := new(respcache.Snapshot)
	hsrv := httptest.NewServer(httpapi.New(svc, httpapi.Options{Cache: cache, MaxOps: maxOps}))
	t.Cleanup(hsrv.Close)
	fsrv := framesrv.New(svc, framesrv.Options{Cache: cache, MaxOps: maxOps, DrainGrace: 100 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- fsrv.Serve(ln) }()

	httpBody := getFrame(t, hsrv.URL+"/snapshot")

	// The TCP transport must answer the same version with the identical
	// bytes (shared cache — not merely an equivalent encoding).
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(dkclique.EncodeWireSnapshotRequest(nil, true)); err != nil {
		t.Fatal(err)
	}
	tcpBody := make([]byte, len(httpBody))
	if _, err := io.ReadFull(conn, tcpBody); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(httpBody, tcpBody) {
		t.Fatalf("TCP snapshot body differs from the HTTP one (%d bytes each)", len(httpBody))
	}
	f, _, err := dkclique.DecodeWireFrame(tcpBody)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != dkclique.WireFrameSnapshot || f.Version != svc.Snapshot().Version() {
		t.Fatalf("frame type %d version %d", f.Type, f.Version)
	}

	// Lookups, stats and refusals: both transports run the same request
	// layer, so every answer is the same frame byte for byte.
	snap := svc.Snapshot()
	c := snap.Cliques()[0]
	uncovered := int32(-1)
	for u := int32(0); int(u) < snap.N(); u++ {
		if snap.CliqueOf(u) == nil {
			uncovered = u
			break
		}
	}
	if uncovered < 0 {
		t.Fatal("test graph has no uncovered node")
	}
	var pending []byte // TCP bytes read past the last frame
	recvTCP := func() []byte {
		chunk := make([]byte, 4096)
		for {
			if _, m, err := dkclique.DecodeWireFrame(pending); err == nil {
				f := pending[:m:m]
				pending = pending[m:]
				return f
			} else if !errors.Is(err, dkclique.ErrWireShort) {
				t.Fatal(err)
			}
			n, err := conn.Read(chunk)
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, chunk[:n]...)
		}
	}
	for _, tc := range []struct {
		name, path string
		req        []byte
		want       dkclique.WireFrameType
	}{
		{"covered lookup", fmt.Sprintf("/clique/%d", c[0]),
			dkclique.EncodeWireCliqueRequest(nil, c[0]), dkclique.WireFrameClique},
		{"uncovered lookup", fmt.Sprintf("/clique/%d", uncovered),
			dkclique.EncodeWireCliqueRequest(nil, uncovered), dkclique.WireFrameClique},
		{"batch", fmt.Sprintf("/cliques?nodes=%d,%d,%d", c[0], c[1], uncovered),
			dkclique.EncodeWireCliquesRequest(nil, []int32{c[0], c[1], uncovered}), dkclique.WireFrameCliques},
		{"idle stats", "/stats", dkclique.EncodeWireStatsRequest(nil), dkclique.WireFrameStats},
		{"out-of-range node", fmt.Sprintf("/clique/%d", snap.N()),
			dkclique.EncodeWireCliqueRequest(nil, int32(snap.N())), dkclique.WireFrameError},
		{"batch over MaxOps", "/cliques?nodes=0,1,2,3,4",
			dkclique.EncodeWireCliquesRequest(nil, []int32{0, 1, 2, 3, 4}), dkclique.WireFrameError},
	} {
		httpFrame := getFrame(t, hsrv.URL+tc.path)
		if _, err := conn.Write(tc.req); err != nil {
			t.Fatal(err)
		}
		tcpFrame := recvTCP()
		if !bytes.Equal(httpFrame, tcpFrame) {
			t.Fatalf("%s: TCP frame (%d bytes) differs from the HTTP one (%d bytes)", tc.name, len(tcpFrame), len(httpFrame))
		}
		if f, _, err := dkclique.DecodeWireFrame(tcpFrame); err != nil || f.Type != tc.want {
			t.Fatalf("%s: decoded %+v, %v; want frame type %d", tc.name, f, err, tc.want)
		}
	}

	// Subscribe through the public encoders: the first delta carries the
	// whole snapshot from the empty base.
	sub, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := sub.Write(dkclique.EncodeWireSubscribeRequest(nil)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	chunk := make([]byte, 4096)
	for {
		n, err := sub.Read(chunk)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, chunk[:n]...)
		d, _, derr := dkclique.DecodeWireFrame(buf)
		if errors.Is(derr, dkclique.ErrWireShort) {
			continue
		}
		if derr != nil {
			t.Fatal(derr)
		}
		if d.Type != dkclique.WireFrameDelta || d.FromVersion != 0 {
			t.Fatalf("first streamed frame: type %d from %d", d.Type, d.FromVersion)
		}
		if len(d.AddedIDs) != svc.Size() {
			t.Fatalf("base delta adds %d cliques, snapshot has %d", len(d.AddedIDs), svc.Size())
		}
		break
	}

	// Graceful shutdown: the subscriber is hung up on, Serve returns
	// ErrServerClosed, the listener stops accepting.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := fsrv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != framesrv.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	if _, err := sub.Read(chunk); err == nil {
		t.Fatal("subscribe stream still alive after Shutdown")
	}
}

// getFrame fetches url as a binary frame body, whatever its status.
func getFrame(t *testing.T, url string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", dkclique.WireContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
