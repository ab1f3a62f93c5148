// Bigmem smoke: proves the implicit backend's zero-materialization claim
// with a hard number — building a 10⁸-vertex torus keeps the process under
// 256 MB RSS, because nothing but the NeighborSource value exists. The CI
// bigmem-smoke job runs this with PLURALITY_BIGMEM=1; without the gate the
// test skips, since one engine round at n = 10⁸ takes minutes on small
// runners and the color arrays alone need ~800 MB.
package plurality_test

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/topo"
)

// rssBytes reads the process resident set from /proc/self/status (VmRSS,
// reported in kB). Linux-only, which is where the CI step runs.
func rssBytes(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status on this platform: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			break
		}
		return kb << 10
	}
	t.Skip("VmRSS not found in /proc/self/status")
	return 0
}

// TestBigmemImplicitTorus builds a 10⁸-vertex implicit torus (10⁴ × 10⁴)
// and asserts RSS stays under 256 MB before any colors are allocated — a
// materialized CSR of the same graph would be 4.8 GB of adjacency alone.
// It then runs one synchronous 3-majority round to prove the engine
// actually works at this scale, under the looser budget the two color
// buffers impose (2 × 4 B × 10⁸ = 800 MB, plus worker scratch).
func TestBigmemImplicitTorus(t *testing.T) {
	if os.Getenv("PLURALITY_BIGMEM") != "1" {
		t.Skip("set PLURALITY_BIGMEM=1 to run the 10^8-vertex smoke")
	}
	const n = 100_000_000 // 10⁴ × 10⁴ torus
	src, err := topo.BuildSource("torus", n, nil, topo.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if src.N() != n {
		t.Fatalf("source has %d vertices, want %d", src.N(), n)
	}
	const graphBudget = 256 << 20
	if rss := rssBytes(t); rss > graphBudget {
		t.Fatalf("RSS after building implicit n=10^8 torus is %d MB, budget 256 MB — the backend materialized something", rss>>20)
	}

	e := engine.NewGraphEngine(dynamics.ThreeMajority{}, src,
		colorcfg.Biased(n, 4, n/100), 4, 23, nil)
	defer e.Close()
	e.Step(nil)
	if err := e.Config().Validate(n); err != nil {
		t.Fatalf("round broke conservation: %v", err)
	}
	// Colors dominate now; 2 GB leaves headroom over the ~1 GB floor
	// while still catching any O(n·degree) regression (a materialized
	// 4-regular adjacency would add ~4.8 GB).
	const engineBudget = 2 << 30
	if rss := rssBytes(t); rss > engineBudget {
		t.Fatalf("RSS after one n=10^8 round is %d MB, budget 2048 MB", rss>>20)
	}
}
