package build

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/pkgmgr"
	"repro/internal/vfs"
)

// fixtures returns a world and a store seeded with the three distro base
// images, the builder-level analog of ch-image's storage directory.
func fixtures(t *testing.T) (*pkgmgr.World, *image.Store) {
	t.Helper()
	w := pkgmgr.NewWorld()
	s := image.NewStore()
	for _, d := range []struct{ distro, name string }{
		{pkgmgr.DistroAlpine, "alpine:3.19"},
		{pkgmgr.DistroCentOS7, "centos:7"},
		{pkgmgr.DistroDebian, "debian:12"},
	} {
		img, err := w.BaseImage(d.distro, d.name)
		if err != nil {
			t.Fatal(err)
		}
		s.Put(img)
	}
	return w, s
}

func mustBuild(t *testing.T, text string, opt Options) (*Result, string) {
	t.Helper()
	var out strings.Builder
	opt.Output = &out
	if opt.Tag == "" {
		opt.Tag = "test"
	}
	res, err := BuildContext(context.Background(), text, opt)
	if err != nil {
		t.Fatalf("build failed: %v\ntranscript:\n%s", err, out.String())
	}
	return res, out.String()
}

func mustFail(t *testing.T, text string, opt Options) (*Result, string, error) {
	t.Helper()
	var out strings.Builder
	opt.Output = &out
	if opt.Tag == "" {
		opt.Tag = "test"
	}
	res, err := BuildContext(context.Background(), text, opt)
	if err == nil {
		t.Fatalf("build unexpectedly succeeded\ntranscript:\n%s", out.String())
	}
	if res == nil {
		t.Fatal("failed build must still return a non-nil Result")
	}
	return res, out.String(), err
}

// --- parsing → execution ---------------------------------------------------

func TestBuildParseErrorSurfaces(t *testing.T) {
	w, s := fixtures(t)
	if _, err := BuildContext(context.Background(), "FROM alpine:3.19\nBOGUS thing\n", Options{World: w, Store: s}); err == nil {
		t.Fatal("unknown instruction must fail the build")
	}
	if _, err := BuildContext(context.Background(), "RUN true\n", Options{World: w, Store: s}); err == nil {
		t.Fatal("RUN before FROM must fail")
	}
}

func TestBuildUnknownBaseImage(t *testing.T) {
	w, s := fixtures(t)
	_, err := BuildContext(context.Background(), "FROM nosuch:1\nRUN true\n", Options{World: w, Store: s})
	if err == nil || !strings.Contains(err.Error(), "not in storage") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuildMetadataInstructions(t *testing.T) {
	w, s := fixtures(t)
	res, _ := mustBuild(t, `FROM alpine:3.19
ARG RELEASE=v9
ENV APP_HOME=/srv/app RELEASE_TAG=$RELEASE
LABEL maintainer="hpc@example.org"
WORKDIR $APP_HOME
RUN echo ready > status
USER 405
CMD ["/bin/sh", "-lc", "serve"]
ENTRYPOINT launcher
`, Options{World: w, Store: s, Tag: "meta:1"})

	cfg := res.Image.Config
	if cfg.WorkingDir != "/srv/app" {
		t.Errorf("WorkingDir = %q", cfg.WorkingDir)
	}
	if cfg.User != "405" {
		t.Errorf("User = %q", cfg.User)
	}
	if cfg.Labels["maintainer"] != "hpc@example.org" {
		t.Errorf("Labels = %v", cfg.Labels)
	}
	if len(cfg.Cmd) != 3 || cfg.Cmd[0] != "/bin/sh" {
		t.Errorf("Cmd = %v", cfg.Cmd)
	}
	if len(cfg.Entrypoint) != 3 || cfg.Entrypoint[2] != "launcher" {
		t.Errorf("Entrypoint = %v (shell form should wrap)", cfg.Entrypoint)
	}
	found := false
	for _, kv := range cfg.Env {
		if kv == "RELEASE_TAG=v9" {
			found = true
		}
	}
	if !found {
		t.Errorf("ARG did not expand into ENV: %v", cfg.Env)
	}

	// WORKDIR steered the relative RUN redirect.
	fs, err := res.Image.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	data, e := fs.ReadFile(vfs.RootContext(), "/srv/app/status")
	if !e.Ok() || strings.TrimSpace(string(data)) != "ready" {
		t.Errorf("/srv/app/status = %q, %v", data, e)
	}
}

func TestBuildArgsOverrideDefaults(t *testing.T) {
	w, s := fixtures(t)
	res, _ := mustBuild(t, "FROM alpine:3.19\nARG V=0.0\nRUN echo $V > /version\n",
		Options{World: w, Store: s, BuildArgs: map[string]string{"V": "2.7"}})
	fs, _ := res.Image.Flatten()
	data, _ := fs.ReadFile(vfs.RootContext(), "/version")
	if strings.TrimSpace(string(data)) != "2.7" {
		t.Fatalf("/version = %q", data)
	}
}

func TestBuildExecFormRun(t *testing.T) {
	w, s := fixtures(t)
	res, _ := mustBuild(t, `FROM alpine:3.19
RUN ["touch", "/made-by-exec-form"]
`, Options{World: w, Store: s})
	fs, _ := res.Image.Flatten()
	if !fs.Exists(vfs.RootContext(), "/made-by-exec-form") {
		t.Fatal("exec-form RUN did not execute")
	}
}

func TestBuildFailingRunStopsBuild(t *testing.T) {
	w, s := fixtures(t)
	_, _, err := mustFail(t, "FROM alpine:3.19\nRUN false\nRUN touch /later\n",
		Options{World: w, Store: s, Tag: "broken"})
	if !strings.Contains(err.Error(), "status 1") {
		t.Fatalf("err = %v", err)
	}
	if _, ok := s.GetContext(context.Background(), "broken"); ok {
		t.Fatal("failed build must not tag an image")
	}
}

func TestBuildCopyFromContext(t *testing.T) {
	w, s := fixtures(t)
	ctx := map[string][]byte{"solver.c": []byte("int main(){}"), "data.txt": []byte("42")}
	res, _ := mustBuild(t, `FROM alpine:3.19
WORKDIR /opt/app
COPY solver.c .
COPY data.txt /etc/answer
`, Options{World: w, Store: s, Context: ctx})
	fs, _ := res.Image.Flatten()
	rc := vfs.RootContext()
	if b, e := fs.ReadFile(rc, "/opt/app/solver.c"); !e.Ok() || string(b) != "int main(){}" {
		t.Errorf("solver.c: %q %v", b, e)
	}
	if b, e := fs.ReadFile(rc, "/etc/answer"); !e.Ok() || string(b) != "42" {
		t.Errorf("/etc/answer: %q %v", b, e)
	}
}

func TestBuildCopyMissingSourceFails(t *testing.T) {
	w, s := fixtures(t)
	_, _, err := mustFail(t, "FROM alpine:3.19\nCOPY ghost.txt /g\n", Options{World: w, Store: s})
	if !strings.Contains(err.Error(), "not in build context") {
		t.Fatalf("err = %v", err)
	}
}

// --- force modes -----------------------------------------------------------

const yumDockerfile = "FROM centos:7\nRUN yum install -y openssh\n"

// TestBuildForceNoneCentOSFails is the Fig. 1b shape bench_test.go:181
// asserts: an unemulated missing-privilege install must fail, at rpm's
// unconditional cpio chown.
func TestBuildForceNoneCentOSFails(t *testing.T) {
	w, s := fixtures(t)
	res, tr, _ := mustFail(t, yumDockerfile, Options{World: w, Store: s, Force: ForceNone})
	if !strings.Contains(tr, "cpio: chown failed - Invalid argument") {
		t.Fatalf("transcript missing the cpio chown failure:\n%s", tr)
	}
	if res.VirtualNanos == 0 {
		t.Error("failed builds must still report modeled time (bench contract)")
	}
}

func TestBuildForceSeccompCentOSSucceeds(t *testing.T) {
	w, s := fixtures(t)
	res, tr := mustBuild(t, yumDockerfile, Options{World: w, Store: s, Force: ForceSeccomp})
	if !strings.Contains(tr, "Complete!") {
		t.Fatalf("transcript:\n%s", tr)
	}
	if res.Counters.Faked == 0 {
		t.Error("seccomp build must fake privileged syscalls")
	}
	if res.ModifiedRuns != 0 {
		t.Errorf("yum needs no RUN rewriting, got %d", res.ModifiedRuns)
	}
	if res.FakerootRecords != 0 {
		t.Errorf("zero-consistency emulation must keep zero state, got %d", res.FakerootRecords)
	}
	// The installed payload is really there.
	fs, _ := res.Image.Flatten()
	if !fs.Exists(vfs.RootContext(), "/usr/libexec/openssh/ssh-keysign") {
		t.Error("openssh payload missing from built image")
	}
}

func TestBuildForceFakerootCentOSSucceeds(t *testing.T) {
	w, s := fixtures(t)
	res, _ := mustBuild(t, yumDockerfile, Options{World: w, Store: s, Force: ForceFakeroot})
	if res.FakerootRecords == 0 {
		t.Error("consistent preload emulation must keep per-file records")
	}
	if res.Counters.PreloadHits == 0 {
		t.Error("no preload interceptions recorded")
	}
}

func TestBuildForceProotCentOSSucceeds(t *testing.T) {
	w, s := fixtures(t)
	res, _ := mustBuild(t, yumDockerfile, Options{World: w, Store: s, Force: ForceProot})
	if res.FakerootRecords == 0 {
		t.Error("proot keeps an ownership database")
	}
	if res.Counters.PtraceStops == 0 {
		t.Error("ptrace must charge stop events")
	}
}

// TestBuildEnrootVariantCannotBuild: the reduced setuid-only filter the
// paper credits to Enroot lacks the ownership class, so rpm's chown still
// fails — the completeness comparison, asserted here as promised by the
// BenchmarkBuildFilterVariants comment.
func TestBuildEnrootVariantCannotBuild(t *testing.T) {
	w, s := fixtures(t)
	_, tr, _ := mustFail(t, yumDockerfile, Options{
		World: w, Store: s, Force: ForceSeccomp,
		FilterConfig: core.Config{Variant: core.VariantEnroot},
	})
	if !strings.Contains(tr, "cpio: chown failed") {
		t.Fatalf("transcript:\n%s", tr)
	}
}

// --- the §5 apt exception --------------------------------------------------

const aptDockerfile = "FROM debian:12\nRUN apt-get install -y curl\n"

func TestBuildAptWorkaroundInjected(t *testing.T) {
	w, s := fixtures(t)
	res, tr := mustBuild(t, aptDockerfile, Options{World: w, Store: s, Force: ForceSeccomp})
	if res.ModifiedRuns != 1 {
		t.Errorf("ModifiedRuns = %d, want 1", res.ModifiedRuns)
	}
	if !strings.Contains(tr, "Download is performed unsandboxed as root") {
		t.Fatalf("transcript:\n%s", tr)
	}
}

func TestBuildAptWorkaroundDisabledFails(t *testing.T) {
	w, s := fixtures(t)
	_, tr, _ := mustFail(t, aptDockerfile, Options{
		World: w, Store: s, Force: ForceSeccomp, DisableAptWorkaround: true,
	})
	if !strings.Contains(tr, "reported success but uids are still") {
		t.Fatalf("transcript missing the verification failure:\n%s", tr)
	}
}

// --- result plumbing -------------------------------------------------------

func TestBuildTagsStoreAndPushes(t *testing.T) {
	w, s := fixtures(t)
	res, _ := mustBuild(t, "FROM alpine:3.19\nRUN apk add sl\n",
		Options{World: w, Store: s, Force: ForceSeccomp, Tag: "app:1"})
	got, ok := s.GetContext(context.Background(), "app:1")
	if !ok || got != res.Image {
		t.Fatal("result image not tagged into the store")
	}
	if len(res.Image.Layers) < 2 {
		t.Fatalf("expected base + RUN layers, got %d", len(res.Image.Layers))
	}

	reg := image.NewRegistry(image.NewStore())
	url, err := reg.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := image.Push(url, res.Image); err != nil {
		t.Fatalf("built image must be pushable: %v", err)
	}
	pulled, err := image.Pull(url, "app:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(pulled.Layers) != len(res.Image.Layers) {
		t.Fatalf("pull round trip lost layers: %d != %d", len(pulled.Layers), len(res.Image.Layers))
	}
}

func TestBuildStepsWithoutChangesAddNoLayers(t *testing.T) {
	w, s := fixtures(t)
	res, _ := mustBuild(t, "FROM alpine:3.19\nRUN true\nENV X=1\n",
		Options{World: w, Store: s})
	if len(res.Image.Layers) != 1 {
		t.Fatalf("no-op steps must not add layers, got %d", len(res.Image.Layers))
	}
}

func TestForceModeStrings(t *testing.T) {
	want := map[ForceMode]string{
		ForceNone: "none", ForceSeccomp: "seccomp",
		ForceFakeroot: "fakeroot", ForceProot: "proot",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if ForceNone != 0 {
		t.Error("ForceNone must be the zero value (Options{} defaults to no emulation)")
	}
}

func TestBuildAptWorkaroundExecForm(t *testing.T) {
	// Exec-form RUN invokes apt without a shell; the §5 injection must
	// reach it too.
	w, s := fixtures(t)
	res, tr := mustBuild(t, `FROM debian:12
RUN ["apt-get", "install", "-y", "curl"]
`, Options{World: w, Store: s, Force: ForceSeccomp})
	if res.ModifiedRuns != 1 {
		t.Errorf("ModifiedRuns = %d, want 1", res.ModifiedRuns)
	}
	if !strings.Contains(tr, "Download is performed unsandboxed as root") {
		t.Fatalf("transcript:\n%s", tr)
	}
}
