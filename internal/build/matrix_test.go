package build

import (
	"context"
	"strings"
	"testing"

	"repro/internal/pkgmgr"
)

// TestBuildMatrix is the table-driven E8/E15 build matrix — the same
// {workload} × {emulation mode} grid BenchmarkBuildMatrix measures,
// asserted as pass/fail shapes so `go test` catches regressions without
// running benches:
//
//   - alpine/apk succeeds everywhere (Fig. 1a: no privileged syscalls for
//     root-owned packages);
//   - centos7/rpm fails only unemulated (Fig. 1b vs Fig. 2: the cpio
//     chown);
//   - debian/apt fails unemulated, succeeds under seccomp only via the §5
//     workaround, and succeeds under the consistent emulators with no
//     workaround at all.
func TestBuildMatrix(t *testing.T) {
	workloads := []struct {
		key, distro, image, text string
		// failure, when non-empty, is the transcript line expected from
		// the modes in failModes.
		failure   string
		failModes map[ForceMode]bool
	}{
		{
			key: "debian-apt", distro: pkgmgr.DistroDebian, image: "debian:12",
			text:      "FROM debian:12\nRUN apt-get install -y curl\n",
			failure:   "setresuid 100 failed",
			failModes: map[ForceMode]bool{ForceNone: true},
		},
		{
			key: "centos7-rpm", distro: pkgmgr.DistroCentOS7, image: "centos:7",
			text:      "FROM centos:7\nRUN yum install -y openssh\n",
			failure:   "cpio: chown failed - Invalid argument",
			failModes: map[ForceMode]bool{ForceNone: true},
		},
		{
			key: "alpine-apk", distro: pkgmgr.DistroAlpine, image: "alpine:3.19",
			text: "FROM alpine:3.19\nRUN apk add sl\n",
		},
	}
	modes := []ForceMode{ForceNone, ForceSeccomp, ForceFakeroot, ForceProot}

	for _, wl := range workloads {
		for _, mode := range modes {
			t.Run(wl.key+"/"+mode.String(), func(t *testing.T) {
				w, s := fixtures(t)
				var out strings.Builder
				res, err := BuildContext(context.Background(), wl.text, Options{
					Tag: "matrix", Force: mode, Store: s, World: w, Output: &out,
				})
				wantErr := wl.failModes[mode]
				if (err != nil) != wantErr {
					t.Fatalf("err = %v, wantErr = %v\ntranscript:\n%s", err, wantErr, out.String())
				}
				if wantErr {
					if !strings.Contains(out.String(), wl.failure) {
						t.Fatalf("transcript missing %q:\n%s", wl.failure, out.String())
					}
					return
				}
				if res.Image == nil || len(res.Image.Layers) < 2 {
					t.Fatalf("successful build produced no layers")
				}
				// §6 state comparison: only the consistent emulators
				// accumulate records.
				consistent := mode == ForceFakeroot || mode == ForceProot
				if consistent && wl.key != "alpine-apk" && res.FakerootRecords == 0 {
					t.Error("consistent emulator kept no records")
				}
				if !consistent && res.FakerootRecords != 0 {
					t.Errorf("mode %s reported %d state records", mode, res.FakerootRecords)
				}
			})
		}
	}
}

// TestBuildMatrixOverheadOrdering locks the E8/E15 headline down at the
// build level: modeled time per identical successful build must order
// none < seccomp < fakeroot < proot.
func TestBuildMatrixOverheadOrdering(t *testing.T) {
	text := "FROM alpine:3.19\nRUN apk add sl\n"
	vns := map[ForceMode]int64{}
	for _, mode := range []ForceMode{ForceNone, ForceSeccomp, ForceFakeroot, ForceProot} {
		w, s := fixtures(t)
		res, err := BuildContext(context.Background(), text, Options{Tag: "ord", Force: mode, Store: s, World: w})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		vns[mode] = res.VirtualNanos
	}
	if !(vns[ForceNone] < vns[ForceSeccomp] &&
		vns[ForceSeccomp] < vns[ForceFakeroot] &&
		vns[ForceFakeroot] < vns[ForceProot]) {
		t.Fatalf("overhead ordering violated: none=%d seccomp=%d fakeroot=%d proot=%d",
			vns[ForceNone], vns[ForceSeccomp], vns[ForceFakeroot], vns[ForceProot])
	}
}
