-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'clamp_scale'
-- data path: 10 nodes (6 soft, 4 hard), 2 pipeline stages
-- netlist: 14 cells, 18 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_node1 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(9 downto 0);
    gain : in signed(7 downto 0);
    t3_out : out signed(17 downto 0);
    t5_out : out unsigned(0 downto 0)
  );
end entity clamp_scale_dp_node1;

architecture rtl of clamp_scale_dp_node1 is
  signal t2 : signed(17 downto 0);
  signal t2_s1 : signed(17 downto 0) := (others => '0');
  signal t3 : signed(17 downto 0);
  signal t5 : unsigned(0 downto 0);
begin
  t2 <= signed(resize(unsigned(resize(A0, 18)) * unsigned(resize(gain, 18)), 18));
  t3 <= t2_s1;
  t5 <= "1" when resize(t3, 19) > to_signed(2047, 19) else "0";
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t2_s1 <= t2;
      end if;
    end if;
  end process;
  t3_out <= t3;
  t5_out <= t5;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_node2 is
  port (
    t3 : in signed(17 downto 0);
    t7_out : out unsigned(0 downto 0)
  );
end entity clamp_scale_dp_node2;

architecture rtl of clamp_scale_dp_node2 is
  signal t7 : unsigned(0 downto 0);
begin
  t7 <= "1" when resize(t3, 19) < to_signed(-2048, 19) else "0";
  t7_out <= t7;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_node3 is
  port (
    t3 : in signed(17 downto 0);
    t8_out : out signed(15 downto 0)
  );
end entity clamp_scale_dp_node3;

architecture rtl of clamp_scale_dp_node3 is
  signal t8 : signed(15 downto 0);
begin
  t8 <= t3(15 downto 0);
  t8_out <= t8;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_node4 is
end entity clamp_scale_dp_node4;

architecture rtl of clamp_scale_dp_node4 is
begin
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_mux_bb6 is
  port (
    t8 : in signed(15 downto 0);
    n11_pipe : in unsigned(0 downto 0);
    outport0_4_out : out signed(15 downto 0)
  );
end entity clamp_scale_dp_mux_bb6;

architecture rtl of clamp_scale_dp_mux_bb6 is
  signal outport0_4 : signed(15 downto 0);
begin
  outport0_4 <= to_signed(-2048, 16) when n11_pipe /= 0 else t8;
  outport0_4_out <= outport0_4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_node6 is
end entity clamp_scale_dp_node6;

architecture rtl of clamp_scale_dp_node6 is
begin
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_mux_bb3 is
  port (
    outport0_4 : in signed(15 downto 0);
    n14_pipe : in unsigned(0 downto 0);
    outport0_5_out : out signed(15 downto 0)
  );
end entity clamp_scale_dp_mux_bb3;

architecture rtl of clamp_scale_dp_mux_bb3 is
  signal outport0_5 : signed(15 downto 0);
begin
  outport0_5 <= to_signed(2047, 16) when n14_pipe /= 0 else outport0_4;
  outport0_5_out <= outport0_5;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_node8 is
end entity clamp_scale_dp_node8;

architecture rtl of clamp_scale_dp_node8 is
begin
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_pipe_bb3 is
  port (
    t5 : in unsigned(0 downto 0);
    n14_pipe_out : out unsigned(0 downto 0)
  );
end entity clamp_scale_dp_pipe_bb3;

architecture rtl of clamp_scale_dp_pipe_bb3 is
  signal n14_pipe : unsigned(0 downto 0);
begin
  n14_pipe <= t5;
  n14_pipe_out <= n14_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_pipe_bb6 is
  port (
    t7 : in unsigned(0 downto 0);
    n11_pipe_out : out unsigned(0 downto 0)
  );
end entity clamp_scale_dp_pipe_bb6;

architecture rtl of clamp_scale_dp_pipe_bb6 is
  signal n11_pipe : unsigned(0 downto 0);
begin
  n11_pipe <= t7;
  n11_pipe_out <= n11_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(9 downto 0);
    gain : in signed(7 downto 0);
    C_o0 : out signed(15 downto 0)
  );
end entity clamp_scale_dp;

architecture rtl of clamp_scale_dp is
  signal t3 : signed(17 downto 0);
  signal t8 : signed(15 downto 0);
  signal t7 : unsigned(0 downto 0);
  signal n11_pipe : unsigned(0 downto 0);
  signal outport0_4 : signed(15 downto 0);
  signal t5 : unsigned(0 downto 0);
  signal n14_pipe : unsigned(0 downto 0);
  signal outport0_5 : signed(15 downto 0);
begin
  u_node1 : entity work.clamp_scale_dp_node1
    port map (clk => clk, ce => ce, A0 => A0, gain => gain, t3_out => t3, t5_out => t5);
  u_node2 : entity work.clamp_scale_dp_node2
    port map (t3 => t3, t7_out => t7);
  u_node3 : entity work.clamp_scale_dp_node3
    port map (t3 => t3, t8_out => t8);
  u_node4 : entity work.clamp_scale_dp_node4;
  u_mux_bb6 : entity work.clamp_scale_dp_mux_bb6
    port map (t8 => t8, n11_pipe => n11_pipe, outport0_4_out => outport0_4);
  u_node6 : entity work.clamp_scale_dp_node6;
  u_mux_bb3 : entity work.clamp_scale_dp_mux_bb3
    port map (outport0_4 => outport0_4, n14_pipe => n14_pipe, outport0_5_out => outport0_5);
  u_node8 : entity work.clamp_scale_dp_node8;
  u_pipe_bb3 : entity work.clamp_scale_dp_pipe_bb3
    port map (t5 => t5, n14_pipe_out => n14_pipe);
  u_pipe_bb6 : entity work.clamp_scale_dp_pipe_bb6
    port map (t7 => t7, n11_pipe_out => n11_pipe);
  C_o0 <= outport0_5;
end architecture rtl;
