// experiments runs the full reproduction suite — every figure and claim
// from the paper's evaluation (see EXPERIMENTS.md for the index) — and
// prints a paper-vs-measured report. Each experiment is pass/fail on the
// *shape* of the result: who fails, who succeeds, what stat observes, what
// gets counted.
package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"repro/internal/baseline"
	"repro/internal/build"
	"repro/internal/cas"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/errno"
	"repro/internal/image"
	"repro/internal/pkgmgr"
	"repro/internal/seccomp"
	"repro/internal/simos"
	"repro/internal/sysarch"
	"repro/internal/vfs"
)

var failures int

func check(id, claim string, ok bool, measured string) {
	status := "PASS"
	if !ok {
		status = "FAIL"
		failures++
	}
	fmt.Printf("%-4s %-4s %-58s %s\n", id, status, claim, measured)
}

func fixtures() (*pkgmgr.World, *image.Store) {
	w := pkgmgr.NewWorld()
	s := image.NewStore()
	for _, d := range []struct{ distro, name string }{
		{pkgmgr.DistroAlpine, "alpine:3.19"},
		{pkgmgr.DistroCentOS7, "centos:7"},
		{pkgmgr.DistroDebian, "debian:12"},
	} {
		img, err := w.BaseImage(d.distro, d.name)
		if err != nil {
			panic(err)
		}
		s.Put(img)
	}
	return w, s
}

func runBuild(text string, opt build.Options) (*build.Result, string, error) {
	var out strings.Builder
	opt.Output = &out
	opt.Tag = "win"
	res, err := build.BuildContext(context.Background(), text, opt)
	return res, out.String(), err
}

func main() {
	fmt.Println("Zero-consistency root emulation — reproduction report")
	fmt.Println(strings.Repeat("=", 100))

	// E1 (Fig. 1a)
	{
		w, s := fixtures()
		_, tr, err := runBuild("FROM alpine:3.19\nRUN apk add sl\n",
			build.Options{World: w, Store: s, Force: build.ForceNone})
		check("E1", "Fig 1a: apk build succeeds with NO emulation",
			err == nil && strings.Contains(tr, "OK: 8 MiB in 18 packages"),
			firstLineMatching(tr, "OK:"))
	}
	// E2 (Fig. 1b)
	{
		w, s := fixtures()
		_, tr, err := runBuild("FROM centos:7\nRUN yum install -y openssh\n",
			build.Options{World: w, Store: s, Force: build.ForceNone})
		check("E2", "Fig 1b: yum build FAILS at cpio chown with no emulation",
			err != nil && strings.Contains(tr, "cpio: chown failed - Invalid argument"),
			firstLineMatching(tr, "cpio"))
	}
	// E3 (Fig. 2)
	{
		w, s := fixtures()
		res, tr, err := runBuild("FROM centos:7\nRUN yum install -y openssh\n",
			build.Options{World: w, Store: s, Force: build.ForceSeccomp})
		check("E3", "Fig 2: same build succeeds under seccomp, 0 RUNs modified",
			err == nil && res.ModifiedRuns == 0 && strings.Contains(tr, "Complete!"),
			fmt.Sprintf("faked=%d modified=%d", res.Counters.Faked, res.ModifiedRuns))
	}
	// E4 (§5 table)
	{
		inv := core.Inventory(core.VariantCharliecloud)
		byClass := core.InventoryByClass(core.VariantCharliecloud)
		prog, _ := core.Generate(core.Config{})
		ok := len(inv) == 29 && len(byClass[core.ClassOwnership]) == 7 &&
			len(byClass[core.ClassIdentity]) == 19 &&
			len(byClass[core.ClassMknod]) == 2 && len(byClass[core.ClassSelfTest]) == 1 &&
			len(sysarch.All()) == 6 && prog.ValidateSeccomp() == nil
		check("E4", "29 syscalls in 4 classes, valid filter for 6 arches", ok,
			fmt.Sprintf("%d syscalls, %d BPF insns", len(inv), len(prog)))
	}
	// E5 (mknod argument inspection)
	{
		f := core.MustNewFilter(core.Config{})
		nr := sysarch.X8664.MustNumber("mknod")
		chr := seccomp.Data{NR: int32(nr), Arch: sysarch.AuditArchX8664, Args: [6]uint64{0, 0x2000 | 0o666, 0}}
		fifo := seccomp.Data{NR: int32(nr), Arch: sysarch.AuditArchX8664, Args: [6]uint64{0, 0x1000 | 0o644, 0}}
		devRet := f.EvaluateData(&chr)
		fifoRet := f.EvaluateData(&fifo)
		check("E5", "mknod: device faked, FIFO executed",
			seccomp.Action(devRet) == seccomp.RetErrnoBase && fifoRet == seccomp.RetAllow,
			fmt.Sprintf("chr=%s fifo=%s", seccomp.ActionName(devRet), seccomp.ActionName(fifoRet)))
	}
	// E6 (kexec self-test, simulated; the native variant lives in
	// internal/seccomp's tests and cmd/seccomp-probe)
	{
		k := simos.NewKernel()
		p := k.NewInitProc(simos.Mount{FS: vfs.New(), Owner: k.InitNS()}, 1000, 1000)
		img := vfs.New()
		img.ChownAll(1000, 1000)
		container.Enter(p, container.Options{Type: container.TypeIII, RootFS: img})
		before := p.KexecLoad()
		p.Prctl(simos.PrSetNoNewPrivs, 1)
		p.SeccompInstall(core.MustNewFilter(core.Config{}))
		after := p.KexecLoad()
		check("E6", "kexec_load: EPERM before filter, success after",
			before == errno.EPERM && after == errno.OK,
			fmt.Sprintf("before=%s after=%s", before.Name(), after.Name()))
	}
	// E7 (apt exception, 3 regimes)
	{
		w, s := fixtures()
		_, _, errNone := runBuild("FROM debian:12\nRUN apt-get install -y curl\n",
			build.Options{World: w, Store: s, Force: build.ForceNone})
		w2, s2 := fixtures()
		_, tr2, errNoFix := runBuild("FROM debian:12\nRUN apt-get install -y curl\n",
			build.Options{World: w2, Store: s2, Force: build.ForceSeccomp, DisableAptWorkaround: true})
		w3, s3 := fixtures()
		res3, _, errFix := runBuild("FROM debian:12\nRUN apt-get install -y curl\n",
			build.Options{World: w3, Store: s3, Force: build.ForceSeccomp})
		ok := errNone != nil && errNoFix != nil && errFix == nil &&
			res3.ModifiedRuns == 1 &&
			strings.Contains(tr2, "reported success but uids are still")
		check("E7", "apt: fails w/o fix (drop verified), works with injection", ok,
			fmt.Sprintf("modified=%d", res3.ModifiedRuns))
	}
	// E8 (overhead order, modeled time per syscall)
	{
		vns := func(setup func(p *simos.Proc), probe func(p *simos.Proc)) int64 {
			k := simos.NewKernel()
			p := k.NewInitProc(simos.Mount{FS: vfs.New(), Owner: k.InitNS()}, 1000, 1000)
			img := vfs.New()
			rc := vfs.RootContext()
			img.MkdirAll(rc, "/data", 0o755, 1000, 1000)
			img.WriteFile(rc, "/data/f", []byte("x"), 0o644, 1000, 1000)
			img.ChownAll(1000, 1000)
			container.Enter(p, container.Options{Type: container.TypeIII, RootFS: img})
			setup(p)
			k.ResetVirtualTime()
			const n = 1000
			for i := 0; i < n; i++ {
				probe(p)
			}
			return k.VirtualNanos() / n
		}
		stat := func(p *simos.Proc) { p.Stat("/data/f") }
		none := vns(func(*simos.Proc) {}, stat)
		sec := vns(func(p *simos.Proc) {
			p.Prctl(simos.PrSetNoNewPrivs, 1)
			p.SeccompInstall(core.MustNewFilter(core.Config{}))
		}, stat)
		pro := vns(func(p *simos.Proc) { baseline.NewPRoot().Attach(p) }, stat)
		fr := baseline.NewFakeroot()
		fake := vns(func(p *simos.Proc) { p.AddPreload(fr.Hook()) },
			func(p *simos.Proc) {
				c := &simos.CLib{P: p, Hooks: p.Preloads()}
				c.Stat("/data/f")
			})
		ok := none < sec && sec*10 < fake && fake < pro
		check("E8", "overhead: none < seccomp << fakeroot < proot (modeled ns)", ok,
			fmt.Sprintf("none=%d seccomp=%d fakeroot=%d proot=%d", none, sec, fake, pro))
	}
	// E9 (simplicity: intercept surface and state)
	{
		w, s := fixtures()
		resS, _, _ := runBuild("FROM centos:7\nRUN yum install -y openssh\n",
			build.Options{World: w, Store: s, Force: build.ForceSeccomp})
		w2, s2 := fixtures()
		resF, _, _ := runBuild("FROM centos:7\nRUN yum install -y openssh\n",
			build.Options{World: w2, Store: s2, Force: build.ForceFakeroot})
		ok := resS.FakerootRecords == 0 && resF.FakerootRecords > 0 &&
			len(core.Inventory(core.VariantCharliecloud)) == 29
		check("E9", "seccomp: zero state; fakeroot: per-file records", ok,
			fmt.Sprintf("seccomp=%d records, fakeroot=%d records",
				resS.FakerootRecords, resF.FakerootRecords))
	}
	// E10 / E11 are asserted by TestCompatibilityMatrix /
	// TestConsistencyMatrix; summarize the key cell here.
	{
		k := simos.NewKernel()
		fs := vfs.New()
		rc := vfs.RootContext()
		fs.Chmod(rc, "/", 0o777, true)
		p := k.NewInitProc(simos.Mount{FS: fs, Owner: k.InitNS()}, 1000, 1000)
		fs.ChownAll(1000, 1000)
		fs.MkdirAll(rc, "/bin", 0o755, 1000, 1000)
		fs.WriteFile(rc, "/bin/probe", []byte("ELF"), 0o755, 1000, 1000)
		p.WriteFileAll("/f", []byte("x"), 0o644)
		p.AddPreload(baseline.NewFakeroot().Hook())
		reg := simos.NewBinaryRegistry()
		reg.Register("/bin/probe", &simos.Binary{Name: "probe", Static: true,
			Main: func(ctx *simos.ExecCtx) int {
				if e := ctx.C.Chown("/f", 74, 74); e != errno.OK {
					return 1
				}
				return 0
			}})
		p.SetRegistry(reg)
		status, _ := p.Exec([]string{"/bin/probe"}, nil, nil, nil, nil)
		check("E10", "LD_PRELOAD emulation misses static binaries", status != 0,
			fmt.Sprintf("static chown exit=%d", status))
	}
	{
		k := simos.NewKernel()
		fs := vfs.New()
		fs.Chmod(vfs.RootContext(), "/", 0o777, true)
		p := k.NewInitProc(simos.Mount{FS: fs, Owner: k.InitNS()}, 1000, 1000)
		fs.ChownAll(1000, 1000)
		p.WriteFileAll("/f", []byte("x"), 0o644)
		p.Prctl(simos.PrSetNoNewPrivs, 1)
		p.SeccompInstall(core.MustNewFilter(core.Config{}))
		e := p.Chown("/f", 74, 74)
		st, _ := p.Stat("/f")
		check("E11", "zero consistency: chown 'succeeds', stat unchanged",
			e == errno.OK && st.UID != 74,
			fmt.Sprintf("chown=%s stat.uid=%d", e.Name(), st.UID))
	}
	// E12 (Type I/II/III)
	{
		mk := func() (*simos.Proc, *vfs.FS) {
			k := simos.NewKernel()
			p := k.NewInitProc(simos.Mount{FS: vfs.New(), Owner: k.InitNS()}, 1000, 1000)
			img := vfs.New()
			img.ChownAll(1000, 1000)
			return p, img
		}
		p1, i1 := mk()
		e1 := container.Enter(p1, container.Options{Type: container.TypeI, RootFS: i1})
		p2, i2 := mk()
		e2 := container.Enter(p2, container.Options{Type: container.TypeII, RootFS: i2})
		p2h, i2h := mk()
		e2h := container.Enter(p2h, container.Options{Type: container.TypeII, RootFS: i2h, Helper: true})
		p3, i3 := mk()
		e3 := container.Enter(p3, container.Options{Type: container.TypeIII, RootFS: i3})
		check("E12", "Type I/II need privilege or helpers; Type III does not",
			e1 != nil && e2 != nil && e2h == nil && e3 == nil,
			fmt.Sprintf("I=%v II=%v II+helper=%v III=%v", e1 != nil, e2 != nil, e2h == nil, e3 == nil))
	}
	// E13 (extended filter: setxattr)
	{
		k := simos.NewKernel()
		fs := vfs.New()
		fs.Chmod(vfs.RootContext(), "/", 0o777, true)
		p := k.NewInitProc(simos.Mount{FS: fs, Owner: k.InitNS()}, 1000, 1000)
		fs.ChownAll(1000, 1000)
		p.WriteFileAll("/bin-ping", []byte("ELF"), 0o755)
		before := p.Setxattr("/bin-ping", "security.capability", []byte{1})
		p.Prctl(simos.PrSetNoNewPrivs, 1)
		p.SeccompInstall(core.MustNewFilter(core.Config{Variant: core.VariantExtended}))
		after := p.Setxattr("/bin-ping", "security.capability", []byte{1})
		check("E13", "extended filter fakes setxattr (future work 1)",
			before == errno.EPERM && after == errno.OK,
			fmt.Sprintf("before=%s after=%s", before.Name(), after.Name()))
	}
	// E14 (ID consistency via USER_NOTIF removes the apt workaround need —
	// at the syscall level: the supervisor records and answers get*).
	{
		k := simos.NewKernel()
		p := k.NewInitProc(simos.Mount{FS: vfs.New(), Owner: k.InitNS()}, 1000, 1000)
		img := vfs.New()
		img.ChownAll(1000, 1000)
		container.Enter(p, container.Options{Type: container.TypeIII, RootFS: img})
		p.Prctl(simos.PrSetNoNewPrivs, 1)
		var recorded int
		p.SetNotifier(simos.NotifierFunc(func(pp *simos.Proc, name string, args []uint64) errno.Errno {
			recorded++
			return errno.OK
		}))
		p.SeccompInstall(core.MustNewFilter(core.Config{IDConsistency: true}))
		e := p.Setresuid(100, 100, 100)
		check("E14", "IDConsistency routes identity calls to a supervisor",
			e == errno.OK && recorded == 1,
			fmt.Sprintf("notif events=%d", recorded))
	}
	// E16 (seccomp/BPF semantics)
	{
		progLin, _ := core.Generate(core.Config{})
		progTree, _ := core.Generate(core.Config{Strategy: core.DispatchTree})
		agree := true
		fLin := core.MustNewFilter(core.Config{})
		fTree := core.MustNewFilter(core.Config{Strategy: core.DispatchTree})
		for _, arch := range sysarch.All() {
			for nr := int32(0); nr < 420; nr++ {
				d := seccomp.Data{NR: nr, Arch: arch.AuditArch}
				if fLin.EvaluateData(&d) != fTree.EvaluateData(&d) {
					agree = false
				}
			}
		}
		check("E16", "verifier-valid programs; linear & tree dispatch agree",
			progLin.ValidateSeccomp() == nil && progTree.ValidateSeccomp() == nil && agree,
			fmt.Sprintf("linear=%d insns, tree=%d insns", len(progLin), len(progTree)))
	}

	// E17 (parallel build farm): the whole E15 matrix submitted to one
	// build.Pool — every job shares one store and one instruction cache —
	// must reproduce exactly the serial pass/fail shapes, and the shared
	// flatten cache must fill once per distro chain however many builders
	// raced on it.
	{
		w, s := fixtures()
		cache := build.NewCache()
		workloads := []struct {
			key, text string
			failNone  bool
		}{
			{"apk", "FROM alpine:3.19\nRUN apk add sl\n", false},
			{"yum", "FROM centos:7\nRUN yum install -y openssh\n", true},
			{"apt", "FROM debian:12\nRUN apt-get install -y curl\n", true},
		}
		modes := []build.ForceMode{build.ForceNone, build.ForceSeccomp, build.ForceFakeroot, build.ForceProot}
		var jobs []build.Job
		wantFail := map[string]bool{}
		for _, wl := range workloads {
			for _, m := range modes {
				name := wl.key + "/" + m.String()
				wantFail[name] = wl.failNone && m == build.ForceNone
				jobs = append(jobs, build.Job{
					Name:       name,
					Dockerfile: wl.text,
					Options: build.Options{
						Tag: "pool-" + wl.key + "-" + m.String(), Force: m,
						Store: s, World: w, Cache: cache,
					},
				})
			}
		}
		results, _ := (&build.Pool{Workers: 4}).RunContext(context.Background(), jobs)
		shapesOK := true
		for _, r := range results {
			if (r.Err != nil) != wantFail[r.Name] {
				shapesOK = false
			}
		}
		check("E17", "pool: 12-job matrix matches serial shapes, 3 flatten fills",
			shapesOK && s.FlattenFills() == len(workloads),
			fmt.Sprintf("jobs=%d fills=%d", len(results), s.FlattenFills()))
	}

	// E18 (multi-stage builder pattern): a build stage does the privileged
	// package install under seccomp, a slim runtime stage copies only the
	// artifact out of it, and an unreferenced debug stage is pruned. The
	// runtime image must carry the artifact byte-for-byte without any of
	// the build stage's rootfs.
	{
		w, s := fixtures()
		text := `FROM centos:7 AS build
RUN yum install -y openssh
RUN mkdir -p /opt && echo solver-bin > /opt/solver && chmod 755 /opt/solver

FROM alpine:3.19 AS debug
RUN apk add sl

FROM alpine:3.19
COPY --from=build /opt/solver /app/solver
CMD ["/app/solver"]
`
		res, _, err := runBuild(text, build.Options{World: w, Store: s, Force: build.ForceSeccomp})
		ok := err == nil && res.StagesBuilt == 2 && res.StagesSkipped == 1
		var artifact []byte
		if ok {
			if fs, ferr := res.Image.Flatten(); ferr == nil {
				rc := vfs.RootContext()
				artifact, _ = fs.ReadFile(rc, "/app/solver")
				// Slim: nothing of the centos build stage leaks through.
				ok = string(artifact) == "solver-bin\n" && !fs.Exists(rc, "/etc/centos-release")
			} else {
				ok = false
			}
		}
		check("E18", "multi-stage: slim runtime gets artifact, debug pruned", ok,
			fmt.Sprintf("built=%d skipped=%d artifact=%q", res.StagesBuilt, res.StagesSkipped,
				strings.TrimSpace(string(artifact))))
	}

	// E19 (persistent cache): two separate invocations — completely fresh
	// worlds, stores and instruction caches, sharing only an on-disk
	// cas directory — of the E18 builder pattern. The second must run
	// fully warm: every instruction a cache hit, nothing executed, and
	// the flatten chains rehydrated from persisted snapshots instead of
	// filled (zero fills).
	{
		text := `FROM centos:7 AS build
RUN yum install -y openssh
RUN mkdir -p /opt && echo solver-bin > /opt/solver

FROM alpine:3.19
COPY --from=build /opt/solver /app/solver
`
		dir, err := os.MkdirTemp("", "e19-cas-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		invoke := func() (*build.Result, *image.Store, error) {
			d, _, err := cas.Open(dir)
			if err != nil {
				return nil, nil, err
			}
			defer d.Close()
			w := pkgmgr.NewWorld()
			s := image.NewStore()
			s.SetBacking(d)
			for _, db := range []struct{ distro, name string }{
				{pkgmgr.DistroCentOS7, "centos:7"},
				{pkgmgr.DistroAlpine, "alpine:3.19"},
			} {
				img, err := w.BaseImage(db.distro, db.name)
				if err != nil {
					return nil, nil, err
				}
				s.Put(img)
			}
			res, err := build.BuildContext(context.Background(), text, build.Options{
				Tag: "e19:1", Force: build.ForceSeccomp,
				Store: s, World: w, Cache: build.NewPersistentCache(d),
			})
			return res, s, err
		}
		cold, _, err1 := invoke()
		warm, s2, err2 := invoke()
		ok := err1 == nil && err2 == nil &&
			cold.Executed > 0 && warm.Executed == 0 &&
			warm.CacheHits == cold.Executed && s2.FlattenFills() == 0
		measured := "build failed"
		if err1 == nil && err2 == nil {
			measured = fmt.Sprintf("cold executed=%d; warm executed=%d hits=%d fills=%d rehydrates=%d",
				cold.Executed, warm.Executed, warm.CacheHits, s2.FlattenFills(), s2.Rehydrates())
		}
		check("E19", "persistent cache: 2nd invocation fully warm from disk", ok, measured)
	}

	fmt.Println(strings.Repeat("=", 100))
	if failures > 0 {
		fmt.Printf("%d experiment(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("all experiments reproduce the paper's shapes")
}

func firstLineMatching(s, sub string) string {
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, sub) {
			return strings.TrimSpace(line)
		}
	}
	return "(no match)"
}
