//go:build ubedebug

package cluster

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"ube/internal/ubedebug"
)

// TestAuditChecksClosedForm runs Audit on every component Split decides
// in closed form: each audit re-clusters its component and counts once,
// and an audit of a closed-form quality that is off by one bit panics.
func TestAuditChecksClosedForm(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var audited int
	for trial := 0; trial < 50; trial++ {
		c := drawCase(r, familySchemas)
		cs := Split(c.u, c.S, c.G, caseConfig(c, &Scratch{}, true, nil))
		before := ubedebug.Audited()
		for k := cs.Len(); k < cs.Len()+cs.Closed(); k++ {
			cs.Audit(k)
		}
		if got := ubedebug.Audited() - before; got != uint64(cs.Closed()) {
			t.Fatalf("trial %d: %d audits over %d closed-form components", trial, got, cs.Closed())
		}
		audited += cs.Closed()
		for k := cs.Len(); k < cs.Len()+cs.Closed(); k++ {
			if !cs.comps[k].out {
				continue
			}
			cs.comps[k].q = math.Nextafter(cs.comps[k].q, 2)
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "differs from a fresh run") {
						t.Fatalf("trial %d: audit of a perturbed closed-form Part did not panic as expected: %q", trial, msg)
					}
				}()
				cs.Audit(k)
			}()
			break
		}
	}
	if audited == 0 {
		t.Fatal("no closed-form component was audited")
	}
}
