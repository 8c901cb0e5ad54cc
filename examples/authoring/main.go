// Authoring: the educator workflow. Start from a template, build a
// custom module from the pattern catalog, add noise for difficulty,
// validate everything, pack a lesson zip, and reload it — the full
// life cycle of the paper's "easily editable JSON file" design.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/modules"
	"repro/internal/patterns"
)

func main() {
	dir, err := os.MkdirTemp("", "tw-authoring")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Start from the 10×10 template, exactly as the paper
	// instructs ("example files that can be duplicated and
	// modified").
	template := core.MustTemplate(10)
	template.Name = "My First Lesson"
	template.Author = "An Educator"

	// 2. Generate a module straight from the pattern catalog.
	entry, ok := patterns.Lookup("fig6d-external-supernode")
	if !ok {
		log.Fatal("catalog entry missing")
	}
	supernode, err := modules.FromEntry(entry)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Build a challenge module: a DDoS attack hidden in
	// background noise (the paper's suggested harder exercise).
	rng := rand.New(rand.NewSource(11))
	attack, err := patterns.DDoS(patterns.StandardZones10, patterns.DDoSAttack, 2)
	if err != nil {
		log.Fatal(err)
	}
	noisy, err := patterns.AddNoise(attack, rng, 8, 2)
	if err != nil {
		log.Fatal(err)
	}
	challenge := &core.Module{
		Name:                 "Find the Attack",
		Size:                 core.FormatSize(10),
		Author:               "An Educator",
		AxisLabels:           append([]string(nil), patterns.StandardLabels10...),
		TrafficMatrix:        noisy.ToRows(),
		TrafficMatrixColors:  patterns.StandardZones10.ColorMatrix().ToRows(),
		HasQuestion:          true,
		Question:             "Which host is under attack?",
		Answers:              []string{"SRV1", "EXT1", "ADV1"},
		CorrectAnswerElement: 0,
	}

	// 4. Validate each module and report findings the way twmodule
	// does.
	lesson := &core.Lesson{Name: "authored", Modules: []*core.Module{template, supernode, challenge}}
	if issues := lesson.Validate(); len(issues) > 0 {
		fmt.Println("validation findings:")
		for _, issue := range issues {
			fmt.Println("  " + issue.String())
		}
		if !issues.OK() {
			log.Fatal("lesson has errors")
		}
	}

	// 5. Pack the lesson zip and reload it; the round-trip must be
	// lossless.
	zipPath := filepath.Join(dir, "authored.zip")
	var buf bytes.Buffer
	if err := lesson.WriteZip(&buf); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(zipPath, buf.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	reloaded, err := core.LoadZipFile(zipPath)
	if err != nil {
		log.Fatal(err)
	}
	for i, m := range reloaded.Modules {
		if !m.Equal(lesson.Modules[i]) {
			log.Fatalf("module %d changed across the zip round-trip", i)
		}
	}
	fmt.Printf("packed and reloaded %d modules losslessly via %s\n", reloaded.Len(), filepath.Base(zipPath))

	// 6. Show that the hidden attack is still detectable — the
	// lesson works.
	mat, err := challenge.Matrix()
	if err != nil {
		log.Fatal(err)
	}
	hubs := matrix.SupernodesOf(mat, patterns.SupernodeFanThreshold)
	if len(hubs) == 0 {
		log.Fatal("challenge module lost its attack signal")
	}
	fmt.Printf("challenge check: busiest hub is %s (fan %d, direction %s) — the victim\n",
		challenge.AxisLabels[hubs[0].Index], hubs[0].Fan, hubs[0].Direction)
}
