// Command invbench regenerates the paper's evaluation: Figures 3–6 and
// Table 3 of Olson's Inversion file system paper, plus the local
// ([STON93]) comparison and the ablation studies listed in DESIGN.md.
// Times are simulated seconds on the modeled 1993 testbed (DECsystem
// 5900, RZ58 disk, 10 Mbit/s Ethernet, PRESTOserve), so the shape of
// the results — who wins, by what factor — is comparable to the
// published numbers, which are printed alongside.
//
// Usage:
//
//	invbench -all            # everything
//	invbench -fig 3          # one figure (3, 4, 5 or 6)
//	invbench -table3         # all nine ops, three configurations
//	invbench -local          # Inversion vs local FFS, no network
//	invbench -ablate         # cache size, coalescing, compression, jukebox
//	invbench -size 25        # created-file size in MB (default 25)
//	invbench -json out.json  # also write the Table 3 grid, machine-readable
//
// Everything here runs on the virtual clock. The wall-clock benchmark of
// the Go implementation is benchmarks/ (BENCHMARK.json); the real-sleep
// scaling curves are `go test -run '^$' -bench Scaling .`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "reproduce one figure (3..6)")
		table3   = flag.Bool("table3", false, "reproduce Table 3")
		local    = flag.Bool("local", false, "local (no-network) comparison")
		ablate   = flag.Bool("ablate", false, "run ablations")
		all      = flag.Bool("all", false, "run everything")
		sizeMB   = flag.Int64("size", 25, "created file size in MB")
		jsonPath = flag.String("json", "", "also write machine-readable results to this file")
	)
	flag.Parse()
	if *fig != 0 && (*fig < 3 || *fig > 6) {
		fmt.Fprintf(os.Stderr, "invbench: -fig %d: the paper's evaluation figures are 3, 4, 5 and 6\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	if !*table3 && !*local && !*ablate && !*all && *fig == 0 {
		*all = true
	}
	if err := run(*fig, *table3, *local, *ablate, *all, *sizeMB, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "invbench:", err)
		os.Exit(1)
	}
}

// jsonReport is the -json output shape: the simulated Table 3 grid next
// to the paper's published numbers. CI writes one per run, so a change
// in the digits shows up as an artifact diff.
type jsonReport struct {
	FileSizeBytes int64                         `json:"file_size_bytes,omitempty"`
	Table3Seconds map[string]map[string]float64 `json:"table3_seconds,omitempty"`
	PaperSeconds  map[string]map[string]float64 `json:"paper_seconds,omitempty"`
}

func run(fig int, table3, local, ablate, all bool, sizeMB int64, jsonPath string) error {
	var jr jsonReport
	p := bench.DefaultParams()
	fileSize := sizeMB << 20
	scaled := ""
	if sizeMB != 25 {
		scaled = fmt.Sprintf(" (scaled: %d MB file; paper used 25 MB)", sizeMB)
	}

	var rep *bench.Report
	need := all || table3 || fig != 0
	if need {
		fmt.Printf("Running the paper's benchmark on the three configurations%s...\n\n", scaled)
		var err error
		rep, err = bench.Run(p, fileSize, []bench.Config{
			bench.ConfigInvCS, bench.ConfigNFS, bench.ConfigInvSP,
		})
		if err != nil {
			return err
		}
		jr.FileSizeBytes = rep.FileSize
		jr.Table3Seconds = make(map[string]map[string]float64)
		for cfg, row := range rep.Seconds {
			m := make(map[string]float64, len(row))
			for op, s := range row {
				m[op] = s
			}
			jr.Table3Seconds[string(cfg)] = m
		}
		jr.PaperSeconds = make(map[string]map[string]float64)
		for op, row := range bench.PaperTable3 {
			m := make(map[string]float64, len(row))
			for cfg, s := range row {
				m[string(cfg)] = s
			}
			jr.PaperSeconds[op] = m
		}
	}

	if all || fig == 3 {
		printFigure(rep, "Figure 3: 25 MByte file creation (elapsed seconds)",
			[]string{bench.OpCreate}, []bench.Config{bench.ConfigInvCS, bench.ConfigNFS})
	}
	if all || fig == 4 {
		printFigure(rep, "Figure 4: random single-byte access (elapsed seconds)",
			[]string{bench.OpReadByte, bench.OpWriteByte},
			[]bench.Config{bench.ConfigInvCS, bench.ConfigNFS})
	}
	if all || fig == 5 {
		printFigure(rep, "Figure 5: read throughput (elapsed seconds, 1 MByte)",
			[]string{bench.OpReadSingle, bench.OpReadSeq, bench.OpReadRandom},
			[]bench.Config{bench.ConfigInvCS, bench.ConfigNFS})
	}
	if all || fig == 6 {
		printFigure(rep, "Figure 6: write throughput (elapsed seconds, 1 MByte)",
			[]string{bench.OpWriteSingle, bench.OpWriteSeq, bench.OpWriteRandom},
			[]bench.Config{bench.ConfigInvCS, bench.ConfigNFS})
	}
	if all || table3 {
		printTable3(rep)
	}
	if all || local {
		if err := printLocal(p, fileSize); err != nil {
			return err
		}
	}
	if all || ablate {
		if err := printAblations(p, fileSize); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(&jr, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote machine-readable results to %s\n", jsonPath)
	}
	return nil
}

func cfgLabel(cfg bench.Config) string {
	switch cfg {
	case bench.ConfigInvCS:
		return "Inversion client/server"
	case bench.ConfigNFS:
		return "ULTRIX NFS (PRESTOserve)"
	case bench.ConfigInvSP:
		return "Inversion single process"
	case bench.ConfigLocalFS:
		return "local FFS"
	case bench.ConfigNFSNoPrest:
		return "ULTRIX NFS (no NVRAM)"
	default:
		return string(cfg)
	}
}

// printFigure prints measured seconds plus the Inversion/NFS throughput
// ratio the paper quotes under each figure.
func printFigure(rep *bench.Report, title string, ops []string, cfgs []bench.Config) {
	fmt.Println(title)
	fmt.Printf("  %-36s", "operation")
	for _, c := range cfgs {
		fmt.Printf("  %24s", cfgLabel(c))
	}
	fmt.Println("   Inv/NFS   paper")
	for _, op := range ops {
		fmt.Printf("  %-36s", bench.OpLabel(op))
		for _, c := range cfgs {
			fmt.Printf("  %22.2fs", rep.Seconds[c][op])
		}
		measured := rep.Seconds[bench.ConfigNFS][op] / rep.Seconds[bench.ConfigInvCS][op]
		paper := bench.PaperTable3[op][bench.ConfigNFS] / bench.PaperTable3[op][bench.ConfigInvCS]
		fmt.Printf("   %5.0f%%   %5.0f%%\n", measured*100, paper*100)
	}
	fmt.Println()
}

func printTable3(rep *bench.Report) {
	cfgs := []bench.Config{bench.ConfigInvCS, bench.ConfigNFS, bench.ConfigInvSP}
	fmt.Println("Table 3: elapsed seconds for benchmark tests in three configurations")
	fmt.Println("  (measured | paper)")
	fmt.Printf("  %-36s %22s %22s %22s\n", "Operation",
		"Inversion client/srv", "ULTRIX NFS", "Inversion single-proc")
	for _, op := range bench.AllOps {
		fmt.Printf("  %-36s", bench.OpLabel(op))
		for _, c := range cfgs {
			fmt.Printf(" %10.2f | %7.2f", rep.Seconds[c][op], bench.PaperTable3[op][c])
		}
		fmt.Println()
	}
	fmt.Println()
}

func printLocal(p bench.Params, fileSize int64) error {
	fmt.Println("Local comparison ([STON93]: Inversion ≥90% of native FS on large")
	fmt.Println("sequential transfers, ~70% on small random transfers; no network):")
	rep, err := bench.Run(p, fileSize, []bench.Config{bench.ConfigInvSP, bench.ConfigLocalFS})
	if err != nil {
		return err
	}
	for _, op := range []string{bench.OpReadSingle, bench.OpReadSeq, bench.OpReadRandom,
		bench.OpWriteSingle, bench.OpWriteSeq, bench.OpWriteRandom} {
		inv := rep.Seconds[bench.ConfigInvSP][op]
		lfs := rep.Seconds[bench.ConfigLocalFS][op]
		fmt.Printf("  %-36s inversion %7.2fs   local-ffs %7.2fs   ratio %4.0f%%\n",
			bench.OpLabel(op), inv, lfs, lfs/inv*100)
	}
	fmt.Println()
	return nil
}

func printAblations(p bench.Params, fileSize int64) error {
	fmt.Println("Ablations (design choices called out in DESIGN.md):")

	cs, err := bench.AblateCacheSize(p, fileSize)
	if err != nil {
		return err
	}
	fmt.Printf("  buffer cache 64 vs 300 pages (as shipped vs Berkeley):\n")
	for _, op := range []string{bench.OpReadSeq, bench.OpReadRandom, bench.OpWriteSeq} {
		fmt.Printf("    %-34s %7.2fs -> %7.2fs\n",
			bench.OpLabel(op), cs.Small[op].Seconds(), cs.Large[op].Seconds())
	}

	co, err := bench.AblateCoalescing(p)
	if err != nil {
		return err
	}
	fmt.Printf("  write coalescing, 1 MB in 256 B sequential writes (one txn):\n")
	fmt.Printf("    coalesced: %7.3fs (%4d chunk-table pages)\n",
		co.Coalesced.Seconds(), co.RecordsCoalesced)
	fmt.Printf("    direct:    %7.3fs (%4d chunk-table pages)\n",
		co.Direct.Seconds(), co.RecordsUncoalesced)

	cm, err := bench.AblateCompression(p)
	if err != nil {
		return err
	}
	fmt.Printf("  chunk compression, 2 MB compressible file:\n")
	fmt.Printf("    plain:      create %6.2fs  seq read %6.2fs  rnd read %6.2fs  %4d pages\n",
		cm.CreatePlain.Seconds(), cm.ReadPlain.Seconds(), cm.RandomPlain.Seconds(), cm.PagesPlain)
	fmt.Printf("    compressed: create %6.2fs  seq read %6.2fs  rnd read %6.2fs  %4d pages\n",
		cm.CreateComp.Seconds(), cm.ReadComp.Seconds(), cm.RandomComp.Seconds(), cm.PagesComp)

	jb, err := bench.AblateJukeboxCache(p)
	if err != nil {
		return err
	}
	fmt.Printf("  jukebox staging cache, 2 MB file on WORM:\n")
	fmt.Printf("    cold read %6.2fs; repeat with 10MB cache %6.2fs (%d platter loads);\n",
		jb.ColdRead.Seconds(), jb.CachedRead.Seconds(), jb.PlatterLoadsCached)
	fmt.Printf("    repeat with 32KB cache %6.2fs (%d platter loads)\n",
		jb.TinyCacheRepeatRead.Seconds(), jb.PlatterLoadsTinyCache)

	rec, err := bench.AblateRecovery(p, 50, 20<<20)
	if err != nil {
		return err
	}
	fmt.Printf("  crash recovery vs fsck, %d files / %d MB on disk (%d pages):\n",
		rec.Files, rec.DataBytes>>20, rec.PagesOnDisk)
	fmt.Printf("    log-only recovery %8.4fs;  fsck-style full scan %8.2fs  (%.0fx)\n",
		rec.RecoveryTime.Seconds(), rec.FsckTime.Seconds(), rec.SpeedupFactor)
	fmt.Println()
	return nil
}
